import itertools
import json
from collections import Counter

import numpy as np
import pytest

from currentrep import linalg, modrep
from currentrep.algebra import AlgebraDescriptor, CurrentElement, get_context
from currentrep.errors import (BadCharacter, BadWeight, NeedsFieldExtension,
                               OutOfScope, TooLarge)
from currentrep.meataxe import (SimpleCatalog, chop, find_invariant_subspace,
                               quotient_rep, submodule_rep)
from currentrep.modrep import (LambdaWeight, ModuleRep, build_baby_verma,
                               build_dual_verma, build_induced,
                               build_regular_module, build_torus_projective,
                               build_Zproj, check_module_axioms,
                               enumerate_lambda, inflate,
                               lambda_equations_hold, solve_twist_weight,
                               twist_module)
from currentrep.pchar import PChar, pchar_from_element
from currentrep.suites import SuiteConfig, run_suite

SL2 = AlgebraDescriptor("sl", 2, 3, 1)
E = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
H = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]])


def test_enumerate_lambda_zero_char():
    lams = enumerate_lambda(PChar.zero(SL2))
    assert [l.degree_zero for l in lams] == [(0,), (1,), (2,)]
    assert all(all(v == 0 for v in l.values[1]) for l in lams)


def test_enumerate_lambda_order():
    # gl2 at χ = 0: every degree-0 weight in F_3^2, lexicographically
    gl2 = AlgebraDescriptor("gl", 2, 3, 1)
    lams = enumerate_lambda(PChar.zero(gl2))
    assert [l.degree_zero for l in lams] == [(a, b) for a in range(3) for b in range(3)]
    assert all(l.values[1] == (0, 0) for l in lams)


def test_enumerate_lambda_nilpotent_char():
    lams = enumerate_lambda(pchar_from_element(E))
    assert [l.degree_zero for l in lams] == [(0,), (1,), (2,)]
    assert all(l.values[1] == (0,) for l in lams)


def test_enumerate_lambda_toral_char_forces_top_layer():
    lams = enumerate_lambda(pchar_from_element(H))
    assert all(l.values[1] == (2,) for l in lams)  # λ(h t) = Tr(h²) = 2
    assert sorted(l.degree_zero for l in lams) == [(0,), (1,), (2,)]


def test_enumerate_lambda_needs_extension():
    # dual element with a toral top layer: χ(h) ≠ 0 has no F_p solution
    Ht = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]], 1)
    with pytest.raises(NeedsFieldExtension):
        enumerate_lambda(pchar_from_element(Ht))


def test_enumerate_lambda_bad_character():
    F = CurrentElement.from_matrix(SL2, [[0, 0], [1, 0]])
    with pytest.raises(BadCharacter):
        enumerate_lambda(pchar_from_element(F))  # χ(n+) ≠ 0


def test_baby_verma_dimension_and_weights():
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam, gamma=(0, 0))
    assert Z.dim == 9
    assert check_module_axioms(Z).ok
    assert Counter(Z.weight_tags) == {(0,): 3, (1,): 3, (2,): 3}
    assert Counter(Z.grading_tags) == {(0, 0): 1, (-2, 0): 2, (-4, 0): 3,
                                       (-6, 0): 2, (-8, 0): 1}
    # highest vector at index 0: annihilated by n+, weighted by λ
    ctx = get_context(SL2)
    slots = {g: i for i, g in enumerate(Z.gens)}
    for g in ctx.nplus_indices:
        assert not np.any(Z.action(slots[g])[:, 0])
    for g in ctx.torus_indices:
        col = Z.action(slots[g])[:, 0]
        assert col[0] == lam.coords(ctx)[g]
        assert not np.any(np.delete(col, 0))


def test_baby_verma_rejects_bad_weight():
    chi = pchar_from_element(H)
    bad = LambdaWeight.from_degree_zero((0,), SL2)  # top layer must be 2
    with pytest.raises(BadWeight):
        build_baby_verma(chi, bad)


def test_verma_pth_power_reduction_uses_chi():
    chi = pchar_from_element(E)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam)
    assert Z.dim == 9
    # (f t)^3 acts by χ(f t)^3 = κ(e, ft)... = 1 on the PBW basis:
    ctx = get_context(SL2)
    slots = {g: i for i, g in enumerate(Z.gens)}
    ft = [g for g in ctx.nminus_indices if ctx.meta[g].degree == 1][0]
    A = Z.action(slots[ft])
    from currentrep import linalg
    assert np.array_equal(linalg.matpow(A, 3, 3), np.eye(9, dtype=np.int64))


def test_dual_verma():
    lam = enumerate_lambda(PChar.zero(SL2))[1]
    D = build_dual_verma(lam, SL2)
    assert D.dim == 9
    assert check_module_axioms(D).ok
    DD = D.dual().dual()
    assert all(np.array_equal(D.action(i), DD.action(i)) for i in range(len(D.gens)))


def test_torus_projective():
    chi = PChar.zero(SL2)
    Q = build_torus_projective(chi, enumerate_lambda(chi)[0])
    assert Q.dim == 3
    assert Q.tdeg_tags == [0, 1, 2]
    assert check_module_axioms(Q).ok
    chi0 = PChar.zero(AlgebraDescriptor("sl", 2, 3, 0))
    Q0 = build_torus_projective(chi0, enumerate_lambda(chi0)[0])
    assert Q0.dim == 1
    chig = PChar.zero(AlgebraDescriptor("gl", 3, 3, 1))
    Qg = build_torus_projective(chig, enumerate_lambda(chig)[0])
    assert Qg.dim == 27


def test_zproj():
    chi = PChar.zero(SL2)
    Zp = build_Zproj(chi, enumerate_lambda(chi)[0])
    assert Zp.dim == 27
    assert check_module_axioms(Zp).ok
    m0 = AlgebraDescriptor("sl", 2, 3, 0)
    lam0 = enumerate_lambda(PChar.zero(m0))[0]
    Zp0 = build_Zproj(PChar.zero(m0), lam0)
    Z0 = build_baby_verma(PChar.zero(m0), lam0)
    assert Zp0.dim == Z0.dim == 3


def test_inflate():
    m0 = AlgebraDescriptor("sl", 2, 3, 0)
    chi0 = PChar.zero(m0)
    lam = enumerate_lambda(chi0)[2]
    Z = build_baby_verma(chi0, lam)
    Zm = inflate(Z, 1)
    assert Zm.dim == Z.dim
    assert check_module_axioms(Zm).ok
    ctx = get_context(SL2)
    slots = {g: i for i, g in enumerate(Zm.gens)}
    for g in range(ctx.dim):
        if ctx.meta[g].degree >= 1:
            assert not np.any(Zm.action(slots[g]))


def test_twist_module_torus():
    # twist a χ-torus module back to χ = 0: U_χ(h_m) ≅ U_0(h_m)
    chi = pchar_from_element(H)
    lam = enumerate_lambda(chi)[0]
    Q = build_torus_projective(chi, lam)
    assert Q.dim == 3
    assert check_module_axioms(Q).ok
    eta = PChar(H.scale(2))  # -χ has dual -h = 2h
    assert (chi.dual + eta.dual).is_zero()
    M = twist_module(Q, eta)
    assert M.chi.is_zero()
    assert check_module_axioms(M).ok
    assert M.dim == Q.dim


def test_twist_rejects_nonvanishing_functional():
    from currentrep.errors import BadTwist
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam)
    with pytest.raises(BadTwist):
        twist_module(Z, pchar_from_element(E))  # sl_2 is perfect


def test_twist_identity():
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam)
    M = twist_module(Z, PChar.zero(SL2))
    assert all(np.array_equal(M.action(i), Z.action(i)) for i in range(len(Z.gens)))


def test_regular_module_sizes():
    assert build_regular_module(PChar.zero(SL2)).dim == 729
    m0 = AlgebraDescriptor("sl", 2, 3, 0)
    assert build_regular_module(PChar.zero(m0)).dim == 27
    g3 = AlgebraDescriptor("gl", 3, 3, 1)
    with pytest.raises(TooLarge):
        build_regular_module(PChar.zero(g3))


def test_module_stack_is_the_stored_actions_read_only():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[1])
    stored = [Z.action(i) for i in range(len(Z.gens))]
    stack = Z.stack
    assert Z.stack is stack
    assert stack.lifted.dtype == np.float32
    assert stack.lifted.shape == (len(Z.gens), Z.dim, Z.dim)
    for i, (A, B) in enumerate(zip(stored, stack)):
        assert np.array_equal(stack.lifted[i], A.T)
        assert np.array_equal(B, Z.action(i))
    with pytest.raises(ValueError):
        stack.lifted[0, 0, 0] = 1


@pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
def test_reading_the_stack_drops_the_stored_copy(p):
    alg = AlgebraDescriptor("sl", 2, p, 0)
    rng = np.random.default_rng(5)
    acts = [rng.integers(0, p, size=(4, 4)) for _ in range(3)]
    M = ModuleRep(alg, PChar.zero(alg), (0, 1, 2), acts)
    before = [M.action(i) for i in range(3)]
    stack = M.stack
    # int64 once no float dtype holds the products exactly
    assert stack.lifted.dtype == (np.float32 if p == 3 else np.int64)
    assert _held_arrays(M) == [stack]
    for i, A in enumerate(acts):
        assert M.action(i).dtype == np.int64
        assert np.array_equal(M.action(i), before[i])
        assert np.array_equal(M.action(i), A)


def _held_arrays(M):
    """The action data a module holds: arrays, stacks and lists of arrays."""
    return [v for v in vars(M).values()
            if isinstance(v, (np.ndarray, linalg.ActionStack))
            or (isinstance(v, list) and v and isinstance(v[0], np.ndarray))]


def test_module_made_from_a_stack_keeps_no_stored_copy():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[1])
    N = ModuleRep(Z.alg, Z.chi, Z.gens, Z.stack)
    assert _held_arrays(N) == [Z.stack]
    assert N.dim == Z.dim
    cat = SimpleCatalog(seed=3)
    chop(Z, seed=3, catalog=cat)
    sub = find_invariant_subspace(Z.stack, 3, np.random.default_rng(3))
    assert 0 < sub.dim < Z.dim
    derived = [quotient_rep(Z, sub), submodule_rep(Z, sub)]
    for M in [rep for _sid, rep, _inv in cat.entries] + derived:
        assert len(_held_arrays(M)) == 1
        assert _held_arrays(M)[0] is M.stack


def test_axiom_checker_flags_corruption():
    chi = PChar.zero(SL2)
    lam = enumerate_lambda(chi)[0]
    Z = build_baby_verma(chi, lam)
    assert check_module_axioms(Z).ok
    acts = [Z.action(i) for i in range(len(Z.gens))]
    acts[0][0, 1] = (acts[0][0, 1] + 1) % 3
    rep = check_module_axioms(ModuleRep(Z.alg, Z.chi, Z.gens, acts))
    assert not rep.ok


def test_action_of_coords_is_exact_past_int64_sums():
    # three terms (p - 1)^2 overflow an int64 sum at p = 2^31 - 1
    alg = AlgebraDescriptor("sl", 2, 2 ** 31 - 1, 0)
    p = alg.p
    M = ModuleRep(alg, PChar.zero(alg), range(3), [[[p - 1]]] * 3)
    assert M.action_of_coords([p - 1] * 3).tolist() == [[3]]


def test_axiom_checker_records_a_p_power_outside_the_span():
    # (h t)^[p] = h t^3, which is not in the span of the one generator h t
    alg = AlgebraDescriptor("sl", 2, 3, 3)
    ctx = get_context(alg)
    ht = next(g for g in ctx.torus_indices if ctx.meta[g].degree == 1)
    rep = check_module_axioms(ModuleRep(alg, PChar.zero(alg), [ht], [[[0]]]))
    assert rep.bracket_failures == []
    assert rep.power_failures == [(ht, "p-power leaves the subalgebra")]


def test_axiom_checker_records_a_bracket_outside_the_span():
    # [f, e] = -h, which is not in the span of f and e
    alg = AlgebraDescriptor("sl", 2, 3, 0)
    ctx = get_context(alg)
    (e,), (f,) = ctx.nplus_indices, ctx.nminus_indices
    rep = check_module_axioms(ModuleRep(alg, PChar.zero(alg), [f, e], [[[0]], [[0]]]))
    assert f < e and rep.bracket_failures == [(f, e, "bracket leaves the subalgebra")]
    assert rep.power_failures == []


def test_induction_rejects_a_base_that_is_not_a_module():
    alg = AlgebraDescriptor("sl", 2, 3, 0)
    ctx = get_context(alg)
    chi = PChar.zero(alg)
    (e,), (f,), (h,) = ctx.nplus_indices, ctx.nminus_indices, ctx.torus_indices
    # [h, e] = 2e, but 1 x 1 actions commute
    with pytest.raises(BadCharacter, match="bracket compatibility fails"):
        build_induced(chi, [f], ModuleRep(alg, chi, [h, e], [[[1]], [[1]]]))
    # h acts nilpotently, so h^p = 0 differs from h^[p] = h
    with pytest.raises(BadCharacter, match="p-power rule fails"):
        build_induced(chi, [f], ModuleRep(alg, chi, [h], [[[0, 1], [0, 0]]]))
    alg3 = AlgebraDescriptor("sl", 2, 3, 3)
    ctx3 = get_context(alg3)
    chi3 = PChar.zero(alg3)
    ht = next(g for g in ctx3.torus_indices if ctx3.meta[g].degree == 1)
    with pytest.raises(BadCharacter, match="p-power leaves the subalgebra"):
        build_induced(chi3, [], ModuleRep(alg3, chi3, [ht], [[[0]]]))
    other = pchar_from_element(CurrentElement.from_matrix(alg, [[0, 0], [1, 0]]))
    with pytest.raises(BadCharacter, match="another character"):
        build_induced(chi, [f], ModuleRep(alg, other, [h], [[[0]]]))


def test_module_serialization_roundtrip():
    for alg, idx in ((SL2, 1), (AlgebraDescriptor("sl", 2, 11, 0), 5)):
        chi = PChar.zero(alg)
        Z = build_baby_verma(chi, enumerate_lambda(chi)[idx])
        M = type(Z).from_json_dict(json.loads(json.dumps(Z.to_json_dict())))
        assert M.dim == Z.dim
        assert all(np.array_equal(M.action(i), Z.action(i)) for i in range(len(Z.gens)))


def test_large_prime_actions_are_stored_exactly():
    # entries up to p - 1 = 130 do not fit a signed byte
    alg = AlgebraDescriptor("sl", 2, 131, 0)
    chi = PChar.zero(alg)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[5])
    assert Z.dim == 131
    assert check_module_axioms(Z).ok


def test_solve_twist_weight_property():
    # η on gl2 p5 m1 is dual to a degree-0 element, so it is 0 in degree 0
    gl2 = AlgebraDescriptor("gl", 2, 5, 1)
    for dual in (H.scale(1), CurrentElement.from_matrix(gl2, [[1, 2], [0, 3]], 0)):
        ctx = get_context(dual.alg)
        eta = PChar(dual)
        mu = solve_twist_weight(eta)
        cc = eta.coords()
        p = dual.alg.p
        for i in range(ctx.dim):
            lhs = (int(mu[i]) - int(np.dot(ctx.pmap_coords[i], mu) % p)) % p
            assert lhs == int(cc[i]) % p


@pytest.mark.parametrize("kind,n,p,m", [("sl", 2, 3, 2), ("gl", 2, 3, 1),
                                        ("sl", 3, 2, 1), ("gl", 2, 5, 1)])
def test_weights_against_brute_force(kind, n, p, m):
    # oracle: every λ in F_p^{r(m+1)} against the equations as stated,
    # λ(h)^p - λ(h^{[p]}) = χ(h)^p on each toral h, in Python integers
    alg = AlgebraDescriptor(kind, n, p, m)
    ctx = get_context(alg)
    torus = ctx.torus_indices
    pmap = ctx.pmap_coords.tolist()
    candidates = list(itertools.product(range(p), repeat=len(torus)))
    for k in range(10):
        v = np.random.default_rng((13, k)).integers(0, p, size=ctx.dim)
        if k % 2 == 0:
            v[ctx.nminus_indices] = 0  # an upper triangular dual: χ(n+) = 0
        if k % 4 == 0:
            v[torus[-alg.rank:]] = 0  # and χ = 0 on the degree-0 torus
        chi = PChar(ctx.from_coords(v))
        cc = chi.coords().tolist()

        def holds(vals):
            lam = dict(zip(torus, vals))
            return all((pow(lam[h], p, p) - sum(pmap[h][j] * lam[j] for j in torus)) % p
                       == pow(cc[h], p, p) for h in torus)

        weights = [LambdaWeight(tuple(zip(*[iter(c)] * alg.rank))) for c in candidates]
        oracle = [w.values for w, c in zip(weights, candidates) if holds(c)]
        assert [lambda_equations_hold(w, chi) for w in weights] == [holds(c) for c in candidates]
        if any(cc[e] for e in ctx.nplus_indices):
            with pytest.raises(BadCharacter):
                enumerate_lambda(chi)
        elif not oracle:
            with pytest.raises(NeedsFieldExtension):
                enumerate_lambda(chi)
        else:
            assert [w.values for w in enumerate_lambda(chi)] == sorted(oracle)


def test_p_centre_acts_by_chi_on_random_elements():
    # x^p - x^{[p]} is central and acts by χ(x)^p = χ(x) in any module
    from currentrep import linalg
    from currentrep.algebra import get_context, p_map, random_element
    for chi_src in (None, E, H):
        chi = PChar.zero(SL2) if chi_src is None else pchar_from_element(chi_src)
        lam = enumerate_lambda(chi)[0]
        Z = build_baby_verma(chi, lam)
        ctx = get_context(SL2)
        rng = np.random.default_rng(21)
        for _ in range(12):
            x = random_element(SL2, rng)
            rho_x = Z.action_of_coords(ctx.coords(x))
            rho_xp = Z.action_of_coords(ctx.coords(p_map(x)))
            lhs = (linalg.matpow(rho_x, 3, 3) - rho_xp) % 3
            scalar = chi(x) % 3
            assert np.array_equal(lhs, scalar * np.eye(Z.dim, dtype=np.int64) % 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sl2_baby_verma_closed_form(p):
    # basis v_i = f^i ⊗ 1: f v_i = v_{i+1}, f v_{p-1} = χ(f) v_0,
    # h v_i = (λ - 2i) v_i, e v_i = i(λ - i + 1) v_{i-1}
    alg = AlgebraDescriptor("sl", 2, p, 0)
    ctx = get_context(alg)
    (e,), (f,), (h,) = ctx.nplus_indices, ctx.nminus_indices, ctx.torus_indices
    for c in (0, 1, p - 1):
        chi = pchar_from_element(CurrentElement.from_matrix(alg, [[0, c], [0, 0]]))
        assert int(chi.coords()[f]) == c
        for lam in enumerate_lambda(chi):
            Z = build_baby_verma(chi, lam)
            l0 = lam.degree_zero[0]
            E, F, H = (np.zeros((p, p), dtype=np.int64) for _ in range(3))
            for i in range(p):
                F[(i + 1) % p, i] = 1 if i < p - 1 else c
                H[i, i] = (l0 - 2 * i) % p
                if i:
                    E[i - 1, i] = i * (l0 - i + 1) % p
            slots = {g: i for i, g in enumerate(Z.gens)}
            for g, want in ((e, E), (f, F), (h, H)):
                assert np.array_equal(Z.action(slots[g]), want)


def _same_module(M, N):
    # a built module holds its stored matrices until its stack is read
    return (M.gens == N.gens and M.weight_tags == N.weight_tags
            and M.grading_tags == N.grading_tags and M.tdeg_tags == N.tdeg_tags
            and M.basis_labels == N.basis_labels
            and all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(M._actions, N._actions)))


def test_normal_form_tables_are_shared_and_read_only(monkeypatch):
    tables = []
    cached = modrep._normal_form_tables

    def recording(*key):
        out = cached(*key)
        tables.append(out)
        return out

    monkeypatch.setattr(modrep, "_normal_form_tables", recording)
    chi = PChar.zero(SL2)
    lams = enumerate_lambda(chi)
    other = PChar.zero(AlgebraDescriptor("gl", 2, 3, 1))
    builders = [
        lambda: build_baby_verma(chi, lams[0], gamma=(0, 0)),
        lambda: build_baby_verma(chi, lams[2]),
        lambda: build_baby_verma(pchar_from_element(E), lams[1]),
        lambda: build_dual_verma(lams[1], SL2),
        lambda: build_Zproj(chi, lams[1]),
        lambda: build_torus_projective(chi, lams[2]),
        lambda: build_regular_module(chi),
    ]
    for build in builders:
        cached.cache_clear()
        cold = build()
        warm = build()
        build_baby_verma(other, enumerate_lambda(other)[0])
        after = build()
        assert _same_module(cold, warm) and _same_module(cold, after)
    assert tables
    for table in tables:
        for arrays in table.values():
            assert all(not x.flags.writeable for x in arrays)


def test_induction_needs_a_restricted_complement():
    # {e, f} is not closed under the bracket: [e, f] = h
    alg = AlgebraDescriptor("sl", 2, 3, 0)
    ctx = get_context(alg)
    (e,), (f,), (h,) = ctx.nplus_indices, ctx.nminus_indices, ctx.torus_indices
    with pytest.raises(OutOfScope):
        chi = PChar.zero(alg)
        build_induced(chi, [e, f], ModuleRep(alg, chi, [h], [[[0]]]))


def test_zproj_checks_the_limit_before_building(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("torus projective built past the limit")

    monkeypatch.setattr(modrep, "build_torus_projective", refuse)
    chi = PChar.zero(SL2)
    with pytest.raises(TooLarge):
        build_Zproj(chi, enumerate_lambda(chi)[0], limit=20)


def test_cartan_skips_zproj_over_the_limit():
    rep = run_suite(SuiteConfig(kind="sl", n=2, p=5, m=2, suite="cartan"))
    assert {"claim": "baby Verma filtration multiplicities of the induced projective",
            "reason": "module dimension 3125 exceeds limit 2000"} in rep.skipped
    assert rep.passed
