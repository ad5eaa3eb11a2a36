import numpy as np
import pytest
from hypothesis import given, strategies as st

from currentrep import linalg
from currentrep.algebra import (AlgebraDescriptor, CurrentElement,
                                centralizer_dim, classify_element, get_context,
                                random_element)
from currentrep import pchar
from currentrep.errors import InternalError, NotNilpotent, UnsupportedTruncation
from currentrep.pchar import (PChar, index_estimate, pchar_from_element,
                              pchar_jordan, random_pchar,
                              stabilizer_dim, stabilizer_dim_coeffs,
                              standard_levi_form, support_degree,
                              truncate_pchar)

SL2 = AlgebraDescriptor("sl", 2, 3, 1)
E = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
H = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]])
Et = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]], 1)
Ht = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]], 1)


def test_duality_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = random_element(SL2, rng)
        assert pchar_from_element(c).dual == c


def test_dual_of_h_evaluation():
    chi = pchar_from_element(H)
    ctx = get_context(SL2)
    coords = chi.coords()
    # χ(h t) = Tr(h^2) = 2; zero elsewhere
    labels = [m.label for m in ctx.meta]
    assert coords[labels.index("h1*t^1")] == 2
    assert sum(int(v) for v in coords) == 2


def test_support_degree_examples():
    assert support_degree(pchar_from_element(E)) == (1, 1)
    assert support_degree(pchar_from_element(Et)) == (0, 0)
    assert support_degree(PChar.zero(SL2)) == (0, None)
    assert PChar.zero(SL2).is_zero()


def test_pchar_jordan_examples():
    s, n = pchar_jordan(pchar_from_element(E))
    assert s.is_zero() and n.dual == E
    s, n = pchar_jordan(pchar_from_element(H + Et))
    assert n.is_zero()
    s, n = pchar_jordan(pchar_from_element(H + Ht))
    assert s.dual == H and n.dual == Ht


def test_stabilizer_examples():
    assert stabilizer_dim(PChar.zero(SL2)) == SL2.dim_gm
    assert stabilizer_dim(pchar_from_element(E)) == 2
    assert stabilizer_dim(pchar_from_element(Et)) == 4


def test_truncate_examples():
    chi = pchar_from_element(Et)
    psi = truncate_pchar(chi, 0)
    assert psi.alg.m == 0
    assert SL2.dim_gm - stabilizer_dim(chi) == psi.alg.dim_gm - stabilizer_dim(psi)
    with pytest.raises(UnsupportedTruncation):
        truncate_pchar(pchar_from_element(E), 0)  # supported in degree 1
    zero = truncate_pchar(PChar.zero(SL2), 0)
    assert zero.is_zero()


def test_levi_form_examples():
    g3 = AlgebraDescriptor("gl", 3, 3, 1)
    reg = CurrentElement.from_matrix(g3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ld = standard_levi_form(reg)
    assert ld.partition == (3,) and ld.simple_subset == (1, 2) and ld.dim_z_levi == 1
    e12 = CurrentElement.from_matrix(g3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    ld = standard_levi_form(e12)
    assert ld.partition == (2, 1) and ld.dim_z_levi == 2
    zero = standard_levi_form(CurrentElement.zero(g3))
    assert zero.partition == (1, 1, 1) and zero.simple_subset == ()
    with pytest.raises(NotNilpotent):
        standard_levi_form(CurrentElement.from_matrix(g3, np.eye(3, dtype=np.int64)))


def test_levi_form_random_conjugation():
    g3 = AlgebraDescriptor("gl", 3, 3, 0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        up = np.triu(rng.integers(0, 3, (3, 3)), 1)
        while True:
            g = rng.integers(0, 3, (3, 3))
            try:
                gi = linalg.inv(g, 3)
                break
            except Exception:
                continue
        M = linalg.matmul(linalg.matmul(g, up, 3), gi, 3)
        ld = standard_levi_form(CurrentElement.from_matrix(g3, M))
        # conjugator is invertible and reaches the block Jordan form
        check = linalg.matmul(linalg.matmul(ld.conjugator, M, 3),
                              linalg.inv(ld.conjugator, 3), 3)
        assert np.array_equal(check, ld.jordan_form)
        assert sum(ld.partition) == 3


def test_index_estimates():
    assert index_estimate(SL2, 120, 7)[0] == 2
    assert index_estimate(AlgebraDescriptor("sl", 2, 3, 0), 120, 7)[0] == 1
    assert index_estimate(AlgebraDescriptor("gl", 3, 3, 1), 60, 7)[0] == 6


@given(st.integers(0, 10 ** 6))
def test_coadjoint_equals_adjoint_stabilizer(seed):
    rng = np.random.default_rng(seed)
    chi = random_pchar(SL2, rng)
    # stabilizer_dim asserts the agreement internally
    d = stabilizer_dim(chi)
    assert d == centralizer_dim(chi.dual)


@given(st.integers(0, 10 ** 6))
def test_homogeneity_duality(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(0, SL2.m + 1))
    x0 = random_element(SL2.at_order(0), rng)
    if x0.is_zero():
        return
    c = CurrentElement.from_matrix(SL2, x0.coeffs[0], d)
    k, hom = support_degree(pchar_from_element(c))
    assert hom == SL2.m - d


def test_jordan_parts_commute_and_classify():
    rng = np.random.default_rng(1)
    from currentrep.algebra import bracket
    for _ in range(25):
        chi = random_pchar(SL2, rng)
        s, n = pchar_jordan(chi)
        assert bracket(s.dual, n.dual).is_zero()
        if not s.is_zero():
            assert classify_element(s.dual) == "semisimple"


def test_pchar_serialization():
    chi = pchar_from_element(E + Ht)
    d = chi.to_json_dict()
    assert d["class"] == "nilpotent"
    assert PChar.from_json_dict(d) == chi


@pytest.mark.parametrize("alg", [SL2, AlgebraDescriptor("sl", 2, 5, 2),
                                 AlgebraDescriptor("gl", 3, 3, 1)])
def test_stacked_stabilizer_dims_match_each_character(alg):
    rng = np.random.default_rng(11)
    chis = [random_pchar(alg, rng) for _ in range(12)] + [PChar.zero(alg)]
    duals = np.stack([chi.dual.coeffs for chi in chis])
    got = stabilizer_dim_coeffs(duals, alg)
    assert got.tolist() == [stabilizer_dim(chi) for chi in chis]
    assert got[-1] == alg.dim_gm
    # the values on the basis are κ_m(c, b_j)
    ctx = get_context(alg)
    assert chis[0].coords().tolist() == [chis[0](b) for b in ctx.basis]


def test_stacked_stabilizer_dims_raise_if_any_member_disagrees(monkeypatch):
    rng = np.random.default_rng(12)
    duals = np.stack([random_pchar(SL2, rng).dual.coeffs for _ in range(6)])
    stabilizer_dim_coeffs(duals, SL2)
    true_dims = pchar.centralizer_dim_coeffs

    def corrupted(a, alg):
        # one member of the stack, not the first, reports one more
        return true_dims(a, alg) + (np.arange(len(a)) == 4)

    monkeypatch.setattr(pchar, "centralizer_dim_coeffs", corrupted)
    with pytest.raises(InternalError, match="disagree"):
        stabilizer_dim_coeffs(duals, SL2)


def test_index_estimate_returns_the_first_minimal_sample():
    alg = AlgebraDescriptor("sl", 2, 3, 0)
    best, witness = index_estimate(alg, 40, 5)
    dims = [stabilizer_dim(random_pchar(alg, np.random.default_rng((5, i)))) for i in range(40)]
    first = dims.index(min(dims))
    assert best == min(dims)
    assert witness == random_pchar(alg, np.random.default_rng((5, first)))
