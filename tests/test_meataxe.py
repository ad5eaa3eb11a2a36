import itertools
from collections import Counter

import numpy as np
import pytest

from currentrep import linalg, meataxe
from currentrep.algebra import AlgebraDescriptor, CurrentElement, get_context
from currentrep.errors import BadCharacter, NoSolution, NotGraded, NotWeightModule
from currentrep.meataxe import (SimpleCatalog, _intertwines, _line_representatives,
                                _standard_basis, _verma_columns, are_isomorphic, chop,
                                graded_character, head, head_general,
                                hom_space, invariant_subspace, is_irreducible,
                                quotient_actions, restrict_actions, spin,
                                submodule_rep, verma_intertwiner,
                                weight_character)
from currentrep.modrep import (LambdaWeight, ModuleRep, build_baby_verma,
                               build_dual_verma, build_regular_module,
                               enumerate_lambda, inflate)
from currentrep.pchar import PChar, pchar_from_element

SL2 = AlgebraDescriptor("sl", 2, 3, 1)
SL2_0 = AlgebraDescriptor("sl", 2, 3, 0)
E = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
H = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]])


@pytest.fixture(scope="module")
def restricted_simples():
    chi0 = PChar.zero(SL2_0)
    cat = SimpleCatalog(seed=1)
    labels = {}
    for lam in enumerate_lambda(chi0):
        L = head(build_baby_verma(chi0, lam), seed=1)
        labels[lam.degree_zero[0]] = cat.match(inflate(L, 1), f"L({lam.degree_zero[0]})")
    return cat, labels


def test_spin_highest_vector_generates():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    acts = linalg.ActionStack([Z.action(i) for i in range(len(Z.gens))], 3)
    v = np.zeros(9, dtype=np.int64)
    v[0] = 1
    assert spin(acts, v, 3).dim == 9
    assert spin(acts, np.zeros((0, 9), dtype=np.int64), 3).dim == 0


def test_spin_proper_submodule_m0():
    chi0 = PChar.zero(SL2_0)
    Z = build_baby_verma(chi0, enumerate_lambda(chi0)[0])
    acts = linalg.ActionStack([Z.action(i) for i in range(len(Z.gens))], 3)
    # lowest vector f^2 ⊗ 1 spans a proper 2-dimensional submodule of Z(0)
    v = np.zeros(3, dtype=np.int64)
    v[2] = 1
    assert spin(acts, v, 3).dim == 2


def test_natural_module_irreducible():
    nat = ModuleRep(SL2_0, PChar.zero(SL2_0), range(3), [
        np.array([[0, 0], [1, 0]]),   # f
        np.array([[1, 0], [0, 2]]),   # h
        np.array([[0, 1], [0, 0]]),   # e
    ])
    assert is_irreducible(nat, seed=2)


def test_chop_baby_verma(restricted_simples):
    cat, labels = restricted_simples
    chi = PChar.zero(SL2)
    for lam in enumerate_lambda(chi):
        series = chop(build_baby_verma(chi, lam), seed=2, catalog=cat)
        assert dict(series.factors) == {labels[0]: 2, labels[1]: 2, labels[2]: 1}
        assert sum(series.dims[s] * m for s, m in series.factors) == 9


def test_chop_deterministic_and_seed_independent(restricted_simples):
    cat, labels = restricted_simples
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[1])
    a = chop(Z, seed=5, catalog=cat)
    b = chop(Z, seed=5, catalog=cat)
    c = chop(Z, seed=17, catalog=cat)
    assert a.factors == b.factors == c.factors


def test_chop_does_not_need_weight_characters(monkeypatch):
    # the catalog keys simples by dimension and central scalars and leaves
    # the rest to the exact isomorphism test
    chi = PChar.zero(SL2)

    def series():
        cat = SimpleCatalog(seed=4)
        return [chop(build_baby_verma(chi, lam), seed=4, catalog=cat)
                for lam in enumerate_lambda(chi)]

    want = series()

    def refuse(_M):
        raise AssertionError("weight character computed")

    monkeypatch.setattr(meataxe, "weight_character", refuse)
    got = series()
    assert [(s.factors, s.dims, s.retries) for s in got] == \
        [(s.factors, s.dims, s.retries) for s in want]


def test_chop_regular_nilpotent_verma_simple():
    chi = pchar_from_element(E)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    series = chop(Z, seed=3)
    assert len(series.factors) == 1 and series.factors[0][1] == 1
    assert series.dims[series.factors[0][0]] == 9


def test_are_isomorphic_examples():
    chi = pchar_from_element(E)
    lams = enumerate_lambda(chi)
    Z0 = build_baby_verma(chi, lams[0])
    Z1 = build_baby_verma(chi, lams[1])
    flag, theta = are_isomorphic(Z0, Z0, seed=4)
    assert flag
    flag, theta = are_isomorphic(Z0, Z1, seed=4)
    assert flag
    # witness verified exactly
    for i in range(len(Z0.gens)):
        lhs = linalg.matmul(theta, Z0.action(i), 3)
        rhs = linalg.matmul(Z1.action(i), theta, 3)
        assert np.array_equal(lhs, rhs)


def test_central_scalars_read_the_identity_and_its_t_multiples():
    alg = AlgebraDescriptor("gl", 2, 3, 1)
    chi = PChar.zero(alg)
    Z = build_baby_verma(chi, LambdaWeight.from_degree_zero((1, 1), alg))
    # I acts by λ(E_11) + λ(E_22) = 2, I t by 0
    assert Z.central_scalars == ((0, 2), (1, 0))


def test_are_isomorphic_rejects_different_central_characters(monkeypatch):
    alg = AlgebraDescriptor("gl", 2, 3, 1)
    chi = PChar.zero(alg)
    Z0, Z1 = (build_baby_verma(chi, LambdaWeight.from_degree_zero(w, alg))
              for w in ((0, 0), (0, 1)))

    def refuse(*_args, **_kwargs):
        raise AssertionError("standard basis computed for modules the centre tells apart")

    monkeypatch.setattr(meataxe, "_standard_basis", refuse)
    assert are_isomorphic(Z0, Z1, seed=1) == (False, None)


def test_are_isomorphic_dimension_prefilter(restricted_simples):
    cat, labels = restricted_simples
    L0 = cat.get(labels[0])
    L1 = cat.get(labels[1])
    assert are_isomorphic(L0, L1, seed=1)[0] is False


def test_are_isomorphic_distinguishes_toral_vermas():
    chi = pchar_from_element(H)
    lams = enumerate_lambda(chi)
    mods = [build_baby_verma(chi, l) for l in lams]
    assert all(is_irreducible(Z, seed=5) for Z in mods)
    for i in range(1, 3):
        assert are_isomorphic(mods[0], mods[i], seed=5)[0] is False


def test_head_examples(restricted_simples):
    chi = PChar.zero(SL2)
    chi0 = PChar.zero(SL2_0)
    dims = []
    for lam in enumerate_lambda(chi0):
        dims.append(head(build_baby_verma(chi0, lam), seed=6).dim)
    assert dims == [1, 2, 3]
    # head of a simple is itself
    cat, labels = restricted_simples
    L = cat.get(labels[2])
    assert head(L, seed=6).dim == L.dim
    # head of a regular-nilpotent Verma is the Verma
    chie = pchar_from_element(E)
    Z = build_baby_verma(chie, enumerate_lambda(chie)[0])
    assert head(Z, seed=6).dim == 9


def test_head_appears_once_in_chop(restricted_simples):
    cat, labels = restricted_simples
    chi = PChar.zero(SL2)
    for lam in enumerate_lambda(chi):
        Z = build_baby_verma(chi, lam)
        H_ = head(Z, seed=7)
        sid = cat.match(H_)
        assert sid == labels[lam.degree_zero[0]]


def test_head_general_matches_fast_path():
    chi0 = PChar.zero(SL2_0)
    for lam in enumerate_lambda(chi0):
        Z = build_baby_verma(chi0, lam)
        h1 = head(Z, seed=8)
        h2 = head_general(Z, seed=8)
        assert h1.dim == h2.dim
        assert are_isomorphic(h1, h2, seed=8)[0]


def test_invariant_subspace_examples():
    ctx = get_context(SL2)
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    rows = invariant_subspace(Z, ctx.nplus_indices)
    # contains the highest line
    ech = linalg.Echelon(9, 3)
    ech.add_rows(rows)
    v0 = np.zeros(9, dtype=np.int64)
    v0[0] = 1
    assert ech.contains(v0)
    assert invariant_subspace(Z, []).shape[0] == 9


def test_invariant_dimension_law_semisimple_character():
    # Borel-induced module with toral χ: dim M = p^{dim n-} dim M^{n-}
    ctx = get_context(SL2)
    chi = pchar_from_element(H)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    inv = invariant_subspace(Z, ctx.nminus_indices)
    assert Z.dim == 3 ** len(ctx.nminus_indices) * inv.shape[0]


def test_weight_character_examples():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    wc = weight_character(Z)
    assert wc == {(0,): 3, (1,): 3, (2,): 3}
    assert sum(wc.values()) == 9
    chi0 = PChar.zero(SL2_0)
    Z0 = build_baby_verma(chi0, enumerate_lambda(chi0)[0])
    assert weight_character(Z0) == {(0,): 1, (1,): 1, (2,): 1}


def test_weight_character_rejects_nonsemisimple_toral_action():
    chie = pchar_from_element(CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]], 0))
    # χ(h t) ≠ 0 forces a non-semisimple action of h t, but the degree-0
    # torus is still fine; build a module where h itself violates the rule
    M = ModuleRep(SL2_0, pchar_from_element(
        CurrentElement.from_matrix(SL2_0, [[1, 0], [0, -1]])),
        range(3), [np.zeros((2, 2), dtype=np.int64),
                   np.array([[0, 1], [0, 0]]),
                   np.zeros((2, 2), dtype=np.int64)])
    with pytest.raises(NotWeightModule):
        weight_character(M)


def test_graded_character_and_refinement():
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam, gamma=(0, 0))
    gc = graded_character(Z)
    assert sum(gc.values()) == 9
    # d-refinement: summing graded multiplicities over fibers of d gives weights
    ctx = get_context(SL2)
    wc = weight_character(Z)
    folded = Counter()
    for gamma, mult in gc.items():
        folded[ctx.roots.d_map(gamma)] += mult
    assert dict(folded) == wc
    Zplain = build_baby_verma(chi, lam)
    with pytest.raises(NotGraded):
        graded_character(Zplain)


def test_graded_character_shift_translates():
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z1 = build_baby_verma(chi, lam, gamma=(0, 0))
    Z2 = build_baby_verma(chi, lam, gamma=(3, 0))  # shift by p·(1,0)... lattice shift
    t1 = graded_character(Z1)
    t2 = graded_character(Z2)
    assert {(k[0] + 3, k[1]): v for k, v in t1.items()} == t2


def test_verma_intertwiner_positive_and_negative():
    chi = pchar_from_element(E)
    lams = enumerate_lambda(chi)
    Z0 = build_baby_verma(chi, lams[0])
    Z1 = build_baby_verma(chi, lams[1])
    theta = verma_intertwiner(Z1, Z0, lams[1])
    assert theta is not None
    chi0 = PChar.zero(SL2)
    lams0 = enumerate_lambda(chi0)
    A = build_baby_verma(chi0, lams0[0])
    B = build_baby_verma(chi0, lams0[1])
    assert verma_intertwiner(A, B, lams0[0]) is None
    assert verma_intertwiner(A, A, lams0[0]) is not None


def test_hom_space_schur():
    chi = pchar_from_element(H)
    mods = [build_baby_verma(chi, l) for l in enumerate_lambda(chi)]
    assert len(hom_space(mods[0], mods[0])) == 1
    assert len(hom_space(mods[0], mods[1])) == 0


def _hom_space_all_generators(S, M):
    """Reference: Hom(S, M) constrained by every generator of M."""
    eyeS = np.eye(S.dim, dtype=np.int64)
    eyeM = np.eye(M.dim, dtype=np.int64)
    blocks = [np.kron(S.action(i).T, eyeM) - np.kron(eyeS, M.action(i))
              for i in range(len(M.gens))]
    return [vec.reshape(S.dim, M.dim).T for vec in linalg.joint_kernel(blocks, M.alg.p)]


@pytest.mark.parametrize("kind", ["sl", "gl"])
def test_hom_space_over_generating_slots_matches_all_generators(kind):
    alg = AlgebraDescriptor(kind, 2, 3, 1)
    for e in (CurrentElement.zero(alg), CurrentElement.from_matrix(alg, [[0, 1], [0, 0]])):
        chi = pchar_from_element(e)
        vermas = [build_baby_verma(chi, lam) for lam in enumerate_lambda(chi)]
        simples = [Z if is_irreducible(Z, seed=2) else head(Z, seed=2) for Z in vermas]
        assert len(get_context(alg).generating_slots(vermas[0].gens)) < len(vermas[0].gens)
        for S, M in itertools.product(vermas[:2] + simples[:2], repeat=2):
            fast, full = hom_space(S, M), _hom_space_all_generators(S, M)
            assert len(fast) == len(full)
            assert all(np.array_equal(a, b) for a, b in zip(fast, full))


def test_hom_space_rejects_different_characters():
    chi0, chiE = PChar.zero(SL2), pchar_from_element(E)
    Z0 = build_baby_verma(chi0, enumerate_lambda(chi0)[0])
    ZE = build_baby_verma(chiE, enumerate_lambda(chiE)[0])
    with pytest.raises(BadCharacter):
        hom_space(Z0, ZE)


def test_chop_regular_module_small():
    chi0 = PChar.zero(SL2_0)
    cat = SimpleCatalog(seed=9)
    labels = {}
    for lam in enumerate_lambda(chi0):
        L = head(build_baby_verma(chi0, lam), seed=9)
        labels[lam.degree_zero[0]] = cat.match(L, f"L({lam.degree_zero[0]})")
    U = build_regular_module(chi0)
    series = chop(U, seed=9, catalog=cat)
    # [U_0(sl_2) : L(λ)] = dim Q(λ): masses must add to 27
    assert sum(series.dims[s] * m for s, m in series.factors) == 27
    mults = dict(series.factors)
    # multiplicity of the Steinberg module equals its dimension
    assert mults[labels[2]] == 3


def test_submodule_quotient_shapes():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    acts = linalg.ActionStack([Z.action(i) for i in range(len(Z.gens))], 3)
    v = np.zeros(9, dtype=np.int64)
    v[8] = 1
    sub = spin(acts, v, 3)
    assert 0 < sub.dim < 9
    S = submodule_rep(Z, sub)
    from currentrep.modrep import check_module_axioms
    assert check_module_axioms(S).ok
    from currentrep.meataxe import quotient_rep
    Q = quotient_rep(Z, sub)
    assert Q.dim == 9 - sub.dim
    assert check_module_axioms(Q).ok


def _one_step_standard_basis(actions, v, p):
    """Standard basis spun one image at a time, as a reference."""
    ech = linalg.Echelon(actions[0].shape[0], p)
    basis = [np.asarray(v) % p]
    ech.add_rows(basis[0])
    steps = []
    i = 0
    while i < len(basis):
        for gslot, A in enumerate(actions):
            w = linalg.matmul(A, basis[i].reshape(-1, 1), p).ravel()
            if not ech.contains(w):
                basis.append(w)
                ech.add_rows(w)
                steps.append((i, gslot))
        i += 1
    return np.stack(basis), steps


def test_standard_basis_matches_one_step_spin_and_replays():
    chi = pchar_from_element(E)
    lams = enumerate_lambda(chi)
    Z0 = build_baby_verma(chi, lams[0])
    Z1 = build_baby_verma(chi, lams[1])
    acts = [Z0.action(i) for i in range(len(Z0.gens))]
    stack = linalg.ActionStack(acts, 3)
    rng = np.random.default_rng(2)
    for v in [np.eye(Z0.dim, dtype=np.int64)[-1], rng.integers(0, 3, Z0.dim)]:
        basis, steps = _standard_basis(stack, v, 3)
        ref_basis, ref_steps = _one_step_standard_basis(acts, v, 3)
        assert steps == ref_steps
        assert np.array_equal(basis, ref_basis)
    # an isomorphic module replays the schedule from the image of the seed
    flag, theta = are_isomorphic(Z0, Z1, seed=4)
    assert flag
    v = np.eye(Z0.dim, dtype=np.int64)[-1]
    basis, steps = _standard_basis(stack, v, 3)
    acts1 = linalg.ActionStack([Z1.action(i) for i in range(len(Z1.gens))], 3)
    replay = _standard_basis(acts1, linalg.matmul(theta, v.reshape(-1, 1), 3).ravel(), 3, steps)
    assert replay is not None and replay[1] == steps
    # a module of another dimension pattern departs from it
    assert _standard_basis(acts1, np.zeros(Z1.dim, dtype=np.int64), 3, steps) is None


def _py_mul(a, b, p):
    """a @ b mod p over Python integers."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


def _reference_spin(actions, seeds, p):
    """Span closed under the actions, one generator at a time, with products
    over Python integers; (reduced echelon rows, pivots)."""
    rows, piv = linalg.rref(seeds, p)
    while True:
        imgs = [_py_mul(rows, A.T, p) for A in actions]
        grown, gpiv = linalg.rref(np.vstack([rows, *imgs]), p)
        if len(gpiv) == len(piv):
            return rows, piv
        rows, piv = grown, gpiv


def _reference_restrict(actions, rows, piv, p):
    out = []
    for A in actions:
        img = _py_mul(rows, A.T, p)
        coords = img[:, piv]
        assert np.array_equal(_py_mul(coords, rows, p), img)
        out.append(coords.T)
    return out


def _reference_quotient(actions, rows, piv, p):
    npiv = [c for c in range(actions[0].shape[0]) if c not in piv]
    out = []
    for A in actions:
        W = A[:, npiv].T % p
        W = (W - _py_mul(W[:, piv], rows, p)) % p
        out.append(W[:, npiv].T)
    return out, npiv


def _triangular_actions(d, k, split, p, rng):
    """k random actions on F_p^d that leave P·span(e_1..e_split) invariant."""
    while True:
        P = rng.integers(0, p, (d, d))
        try:
            Pinv = linalg.inv(P, p)
            break
        except NoSolution:
            pass
    acts = []
    for _ in range(k):
        T = rng.integers(0, p, (d, d))
        T[split:, :split] = 0
        acts.append(_py_mul(_py_mul(P, T, p), Pinv, p))
    return acts, P


@pytest.mark.parametrize("p", [3, 5, 131, 2 ** 31 - 1])
def test_spin_restrict_quotient_match_one_generator_reference(p):
    # at p = 2^31 - 1 no float dtype holds the products (exact integer path)
    d = 8
    assert (linalg._float_dtype(d, p) is None) == (p > 131)
    rng = np.random.default_rng(p % 101)
    acts, P = _triangular_actions(d, 3, 3, p, rng)
    stack = linalg.ActionStack(acts, p)
    inside = _py_mul(P[:, :3], rng.integers(0, p, (3, 1)), p).T
    for seeds in [inside, rng.integers(0, p, (2, d)), np.zeros((0, d), dtype=np.int64)]:
        ech = spin(stack, seeds, p)
        rows, piv = _reference_spin(acts, seeds, p)
        assert ech.pivots == piv
        assert np.array_equal(ech.rows, rows)
        if not 0 < ech.dim < d:
            continue
        for got, want in zip(restrict_actions(stack, ech, p),
                             _reference_restrict(acts, rows, piv, p)):
            assert np.array_equal(got, want)
        got, npiv = quotient_actions(stack, ech, p)
        want, want_npiv = _reference_quotient(acts, rows, piv, p)
        assert npiv == want_npiv
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert spin(stack, inside, p).dim == 3
    # a subspace that is not invariant has no restriction
    ech = linalg.Echelon(d, p)
    ech.add_rows(np.eye(d, dtype=np.int64)[:2])
    with pytest.raises(NoSolution):
        restrict_actions(stack, ech, p)


def test_int64_stack_runs_spin_standard_basis_and_intertwines_exactly():
    # d (p-1)^2 >= 2^53, so the stack is int64 and products go through
    # Python integers
    p, d = 2 ** 31 - 1, 3
    assert linalg._float_dtype(d, p) is None
    rng = np.random.default_rng(11)
    acts, P = _triangular_actions(d, 2, 1, p, rng)
    stack = linalg.ActionStack(acts, p)
    assert stack.lifted.dtype == np.int64
    for seeds in [rng.integers(0, p, (1, d)), P[:, :1].T]:
        ech = spin(stack, seeds, p)
        rows, piv = _reference_spin(acts, seeds, p)
        assert ech.pivots == piv
        assert np.array_equal(ech.rows, rows)
    v = rng.integers(0, p, d)
    basis, steps = _standard_basis(stack, v, p)
    ref_basis, ref_steps = _one_step_standard_basis(acts, v, p)
    assert steps == ref_steps
    assert np.array_equal(basis, ref_basis)
    # B = P A P^-1 gives P A = B P
    Pinv = linalg.inv(P, p)
    conj = linalg.ActionStack([_py_mul(_py_mul(P, A, p), Pinv, p) for A in acts], p)
    assert _intertwines(P, stack, conj, p)
    bad = P.copy()
    bad[0, 0] = (bad[0, 0] + 1) % p
    assert not _intertwines(bad, stack, conj, p)


def _verma_columns_one_at_a_time(N, comp, w, p):
    """ρ_N(u^a)·w column by column along the monomial recursion."""
    slots = {g: i for i, g in enumerate(N.gens)}
    k = len(comp)
    cols = np.zeros((N.dim, p ** k), dtype=np.int64)
    cols[:, 0] = w
    for r, a in enumerate(itertools.product(range(p), repeat=k)):
        if not r:
            continue
        i = next(t for t, v in enumerate(a) if v)
        prev = r - p ** (k - 1 - i)
        A = N.action(slots[comp[i]])
        cols[:, r] = linalg.matmul(A, cols[:, prev].reshape(-1, 1), p).ravel()
    return cols


@pytest.mark.parametrize("alg", [SL2, AlgebraDescriptor("sl", 2, 3, 2),
                                 AlgebraDescriptor("gl", 2, 5, 1)])
def test_verma_columns_match_the_per_column_recursion(alg):
    p = alg.p
    chi = PChar.zero(alg)
    comp = get_context(alg).nminus_indices
    rng = np.random.default_rng(p)
    for lam in enumerate_lambda(chi)[:2]:
        N = build_baby_verma(chi, lam)
        slots = [N.gens.index(g) for g in comp]
        for w in [np.eye(N.dim, dtype=np.int64)[0], rng.integers(0, p, N.dim)]:
            got = _verma_columns(N.stack, slots, w, p)
            assert np.array_equal(got, _verma_columns_one_at_a_time(N, comp, w, p))


def test_line_representatives_order():
    # coefficient vectors in the order of c_0 + 3 c_1 (+ 9 c_2), leading 1
    got = _line_representatives(np.eye(2, dtype=np.int64), 3)
    assert [v.tolist() for v in got] == [[1, 0], [0, 1], [1, 1], [1, 2]]
    rows = np.array([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]])
    got = _line_representatives(rows, 3)
    assert len(got) == 13
    assert [v.tolist() for v in got[:6]] == [[1, 0, 0, 1], [0, 1, 0, 2], [1, 1, 0, 0],
                                             [1, 2, 0, 2], [0, 0, 1, 1], [1, 0, 1, 2]]
    assert [v.tolist() for v in _line_representatives(rows, 3, cap=2)] == \
        [[1, 0, 0, 1], [0, 1, 0, 2]]
    assert _line_representatives(np.zeros((0, 4), dtype=np.int64), 3) == []


def test_quadratic_endomorphism_field_modules():
    # h acting by the companion matrix of x^2 + 1, irreducible over F_3: no
    # word of the algebra has an eigenvalue of nullity one, so irreducibility
    # and isomorphism rest on the degree-2 kernels
    p = 3
    chi = PChar.zero(SL2_0)
    h = [1]
    C = np.array([[0, 2], [1, 0]])
    P = np.array([[1, 1], [0, 1]])
    M = ModuleRep(SL2_0, chi, h, [C])
    assert is_irreducible(M)
    Mc = ModuleRep(SL2_0, chi, h, [linalg.matmul(linalg.matmul(P, C, p), linalg.inv(P, p), p)])
    flag, theta = are_isomorphic(M, Mc)
    assert flag
    assert linalg.rank(theta, p) == 2
    assert np.array_equal(linalg.matmul(theta, M.action(0), p),
                          linalg.matmul(Mc.action(0), theta, p))
    # x^2 + x + 2 is irreducible as well, with other roots in F_9
    Q = ModuleRep(SL2_0, chi, h, [np.array([[0, 1], [1, 2]])])
    assert are_isomorphic(M, Q)[0] is False
    CC = np.zeros((4, 4), dtype=np.int64)
    CC[:2, :2] = CC[2:, 2:] = C
    series = chop(ModuleRep(SL2_0, chi, h, [CC]))
    assert [m for _s, m in series.factors] == [2]
    assert list(series.dims.values()) == [2]


def test_a_module_over_no_generators_is_decomposed():
    # the trivial module that the regular module is induced from
    M = ModuleRep(SL2, PChar.zero(SL2), (), [], dim=1)
    assert is_irreducible(M, seed=0)
    series = chop(M, seed=0)
    assert series.factors == [(series.factors[0][0], 1)]
    assert list(series.dims.values()) == [1]
    # with no action to keep a subspace out, every line is a submodule
    series = chop(ModuleRep(SL2, PChar.zero(SL2), (), [], dim=3), seed=0)
    assert [m for _s, m in series.factors] == [3] and list(series.dims.values()) == [1]


def _adjoint_module(alg):
    """g_m acting on itself by ad, a U_0-module."""
    ctx = get_context(alg)
    return ModuleRep(alg, PChar.zero(alg), range(ctx.dim), list(ctx.ad_matrix(ctx.basis_coeffs)))


@pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
def test_spin_under_the_generating_slots_matches_every_generator(p):
    modules = [_adjoint_module(AlgebraDescriptor("sl", 2, p, 2)),
               _adjoint_module(AlgebraDescriptor("gl", 2, p, 1))]
    if p == 3:
        chi = PChar.zero(SL2)
        modules += [build_baby_verma(chi, lam) for lam in enumerate_lambda(chi)]
        modules.append(build_dual_verma(enumerate_lambda(chi)[1], SL2))
        gl = AlgebraDescriptor("gl", 2, 3, 1)
        modules.append(build_baby_verma(PChar.zero(gl), enumerate_lambda(PChar.zero(gl))[4]))
    rng = np.random.default_rng(p)
    for M in modules:
        stack = M.stack
        assert len(stack.slots) < stack.k
        seeds = list(np.eye(M.dim, dtype=np.int64)) + list(rng.integers(0, 2, (4, M.dim)))
        for st in (stack, stack.transposed()):
            every = linalg.ActionStack(list(st), p)
            assert every.slots == tuple(range(st.k))
            for v in seeds:
                a, b = spin(st, v, p), spin(every, v, p)
                assert a.pivots == b.pivots and np.array_equal(a.rows, b.rows)
        # the stacks derived from a module keep its slots
        sub = spin(stack, seeds[-1], p)
        assert stack.transposed().slots == stack.slots
        assert restrict_actions(stack, sub, p).slots == stack.slots
        assert quotient_actions(stack, sub, p)[0].slots == stack.slots
