import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from currentrep import linalg
from currentrep.algebra import (AlgebraDescriptor, CurrentElement,
                                _p_power_orbit, bracket, bracket_coeffs,
                                centralizer_basis, centralizer_dim,
                                centralizer_dim_coeffs, classify_element,
                                get_context, is_nilpotent,
                                is_nilpotent_coeffs, is_regular,
                                invert_over_ring, jordan_decompose,
                                kappa_coeffs, kappa_m,
                                p_map, p_map_coeffs, random_element,
                                _stack_mult)
from currentrep.errors import (AlgebraMismatch, InternalError,
                               InvalidDescriptor, NoSolution)

SL2 = AlgebraDescriptor("sl", 2, 3, 1)


def elem(mat, d=0, alg=SL2):
    return CurrentElement.from_matrix(alg, mat, d)


E = elem([[0, 1], [0, 0]])
F = elem([[0, 0], [1, 0]])
H = elem([[1, 0], [0, -1]])
Et = elem([[0, 1], [0, 0]], 1)
Ft = elem([[0, 0], [1, 0]], 1)
Ht = elem([[1, 0], [0, -1]], 1)


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptor):
        AlgebraDescriptor("sl", 2, 4, 1)  # not prime
    with pytest.raises(InvalidDescriptor):
        AlgebraDescriptor("sl", 3, 3, 1)  # p | n
    alg = AlgebraDescriptor("gl", 3, 3, 1)
    assert alg.dim_g == 9 and alg.rank == 3 and alg.num_pos_roots == 3
    assert alg.dim_g == 2 * alg.num_pos_roots + alg.rank
    assert alg.dim_z == 1 and SL2.dim_z == 0


def test_descriptor_rejects_primes_past_int64_products():
    # n (p-1)^2 >= 2^63: element products would wrap, so the descriptor
    # refuses the prime instead of failing later with a bogus trace error
    with pytest.raises(InvalidDescriptor):
        AlgebraDescriptor("sl", 2, 4294967291, 1)
    with pytest.raises(InvalidDescriptor):
        AlgebraDescriptor("gl", 3, 2 ** 31 - 1, 0)
    # 2 (p-1)^2 < 2^63 at p = 2^31 - 1: accepted, and products are exact
    p = 2 ** 31 - 1
    alg = AlgebraDescriptor("sl", 2, p, 1)
    mat = [[p - 1, p - 2], [p - 3, 1]]
    got = CurrentElement.from_matrix(alg, mat).mat_mult(CurrentElement.from_matrix(alg, mat))
    want = [[sum(mat[r][t] * mat[t][s] for t in range(2)) % p for s in range(2)]
            for r in range(2)]
    assert got[0].tolist() == want and not got[1].any()


def test_bracket_examples():
    assert bracket(Et, F) == Ht
    assert bracket(Et, Ft).is_zero()
    assert bracket(H, Et) == Et.scale(2)


def test_bracket_mismatch():
    other = CurrentElement.zero(AlgebraDescriptor("sl", 2, 3, 2))
    with pytest.raises(AlgebraMismatch):
        bracket(E, other)


def test_pmap_examples():
    assert p_map(Et).is_zero()
    assert p_map(H) == H
    assert p_map(H + Et) == H + Et


def test_classify_examples():
    assert classify_element(E + Ht) == "nilpotent"
    assert classify_element(H + Et) == "semisimple"
    g3 = AlgebraDescriptor("gl", 3, 5, 0)
    mixed = CurrentElement.from_matrix(g3, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert classify_element(mixed) == "mixed"


def test_jordan_examples():
    s, n = jordan_decompose(E)
    assert s.is_zero() and n == E
    s, n = jordan_decompose(H + Ht)
    assert s == H and n == Ht
    s, n = jordan_decompose(H + Et)
    assert n.is_zero() and s == H + Et


def test_kappa_examples():
    assert kappa_m(E, F) == 0
    assert kappa_m(E, Ft) == 1
    assert kappa_m(Et, F) == 1
    assert kappa_m(Et, Ft) == 0


def test_centralizer_examples():
    assert centralizer_dim(CurrentElement.zero(SL2)) == SL2.dim_gm
    assert centralizer_dim(E) == 2
    basis = centralizer_basis(Et)
    assert len(basis) == 4


def test_regular_examples():
    assert is_regular(H)
    assert is_regular(E)
    assert not is_regular(CurrentElement.zero(SL2))


def test_gram_full_rank():
    for alg in (SL2, AlgebraDescriptor("gl", 3, 3, 1), AlgebraDescriptor("sl", 3, 2, 1)):
        ctx = get_context(alg)
        assert linalg.rank(ctx.gram_matrix, alg.p) == ctx.dim


def test_centre_is_the_scalar_matrices_in_each_degree():
    for kind, n, m in (("gl", 2, 1), ("gl", 3, 1), ("gl", 2, 2), ("sl", 2, 1)):
        alg = AlgebraDescriptor(kind, n, 3, m)
        ctx = get_context(alg)
        rows = ctx.centre
        assert len(rows) == (m + 1 if kind == "gl" else 0)
        degrees = set()
        for row in rows:
            z = ctx.from_coords(row)
            (d,) = z.support_degrees()
            c = int(z.coeffs[d, 0, 0])
            assert c and np.array_equal(z.coeffs[d], c * np.eye(n, dtype=np.int64))
            degrees.add(d)
        assert len(degrees) == len(rows)


def test_coords_roundtrip():
    ctx = get_context(SL2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_element(SL2, rng)
        assert ctx.from_coords(ctx.coords(x)) == x


def test_serialization_roundtrip():
    d = (E + Ht).to_json_dict()
    assert d["kind"] == "sl" and len(d["coeff_mats"]) == 2
    assert CurrentElement.from_json_dict(d) == E + Ht


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from(["sl", "gl"]))
    if kind == "sl":
        n, p = draw(st.sampled_from([(2, 3), (2, 5), (3, 2)]))
    else:
        n, p = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    m = draw(st.integers(0, 2))
    return AlgebraDescriptor(kind, n, p, m)


@given(algebras(), st.integers(0, 10 ** 6))
def test_jacobi_and_anticommutativity(alg, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_element(alg, rng) for _ in range(3))
    assert (bracket(x, y) + bracket(y, x)).is_zero()
    jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    assert jac.is_zero()


@given(algebras(), st.integers(0, 10 ** 6))
def test_nilpotency_matches_degree_zero_criterion(alg, seed):
    rng = np.random.default_rng(seed)
    x = random_element(alg, rng)
    x0 = CurrentElement.from_matrix(alg, x.coeffs[0], 0)
    assert (classify_element(x) == "nilpotent") == is_nilpotent(x0)


def flatten_regular(x: CurrentElement) -> np.ndarray:
    """Matrix of x acting on R_m^n = F_p^{n(m+1)}, basis e_i t^d (d major):
    block (k, j) is the t^{k-j}-coefficient of x."""
    n, m = x.alg.n, x.alg.m
    X = np.zeros((n * (m + 1), n * (m + 1)), dtype=np.int64)
    for k in range(m + 1):
        for j in range(k + 1):
            X[k * n:(k + 1) * n, j * n:(j + 1) * n] = x.coeffs[k - j]
    return X


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, b, p):
    a, inv = _poly_trim(a), pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv % p, len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = _poly_trim(a)
    return a


def minimal_polynomial(X, p) -> list:
    """Minimal polynomial of a square F_p matrix, ascending and monic, over
    Python integers: the first power of X that the lower ones span."""
    N = len(X)
    X = [[int(v) for v in row] for row in X]
    power = [[int(i == j) for j in range(N)] for i in range(N)]
    rows = []  # (pivot, reduced X^k as a vector, its combination of powers)
    for k in range(N * N + 1):
        v, comb = [c for row in power for c in row], [0] * k + [1]
        for piv, r, c in rows:
            f = v[piv]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, r)]
                comb = [(comb[i] - f * (c[i] if i < len(c) else 0)) % p for i in range(k + 1)]
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return comb
        inv = pow(v[piv], p - 2, p)
        rows.append((piv, [a * inv % p for a in v], [a * inv % p for a in comb]))
        power = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*X)] for row in power]


def is_squarefree(f, p) -> bool:
    """gcd(f, f') = 1 over F_p."""
    a, b = _poly_trim(f), _poly_trim([i * c % p for i, c in enumerate(f)][1:])
    while b:
        a, b = b, _poly_rem(a, b, p)
    return len(a) == 1


def test_minimal_polynomial_reference():
    # the companion matrix of x^3 + x + 1 over F_2, and a 2 x 2 Jordan block
    C = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert minimal_polynomial(C, 2) == [1, 1, 0, 1] and is_squarefree([1, 1, 0, 1], 2)
    assert minimal_polynomial([[2, 1], [0, 2]], 3) == [1, 2, 1]
    assert not is_squarefree([1, 2, 1], 3)
    # x^3 - 1 = (x - 1)^3 over F_3: its derivative vanishes
    assert not is_squarefree([2, 0, 0, 1], 3)


@given(algebras(), st.integers(0, 10 ** 6))
def test_jordan_properties(alg, seed):
    rng = np.random.default_rng(seed)
    x = random_element(alg, rng)
    s, n = jordan_decompose(x)
    assert s + n == x
    assert bracket(s, n).is_zero()
    assert is_nilpotent(n)
    if not s.is_zero():
        assert classify_element(s) == "semisimple"
    # agreement with the flattened matrix decomposition: the flattened s is
    # semisimple as an F_p matrix, its minimal polynomial squarefree
    mp = minimal_polynomial(flatten_regular(s), alg.p)
    if len(mp) > 1 and not s.is_zero():
        assert is_squarefree(mp, alg.p)


@given(algebras(), st.integers(0, 10 ** 6))
def test_kappa_symmetric_associative(alg, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_element(alg, rng) for _ in range(3))
    assert kappa_m(x, y) == kappa_m(y, x)
    assert kappa_m(bracket(x, y), z) == kappa_m(x, bracket(y, z))


def test_jordan_across_shapes_seeded():
    # the semisimple part is a p-power iterate of x, so for sl it stays
    # traceless; the decomposition must always land back in the algebra
    shapes = [("sl", 2, 3), ("sl", 2, 5), ("sl", 3, 2), ("gl", 2, 2), ("gl", 3, 3)]
    rng = np.random.default_rng(987)
    for trial in range(200):
        kind, n, p = shapes[trial % len(shapes)]
        alg = AlgebraDescriptor(kind, n, p, trial % 3)
        x = random_element(alg, rng)
        s, nil = jordan_decompose(x)
        assert s + nil == x
        assert bracket(s, nil).is_zero()
        assert is_nilpotent(nil)
        if not s.is_zero():
            assert classify_element(s) == "semisimple"


def test_mat_mult_at_a_large_prime():
    # with every entry p - 1, one matrix product reaches 3 (p-1)^2 < 2^63,
    # but the four degree pairs of t^3 together would pass 2^63
    p = 1073741789
    alg = AlgebraDescriptor("gl", 3, p, 3)
    x = CurrentElement(alg, np.full((4, 3, 3), p - 1, dtype=np.int64))
    got = x.mat_mult(x)
    c = [[[int(v) for v in row] for row in mat] for mat in x.coeffs]
    for k in range(4):
        for r in range(3):
            for s in range(3):
                want = sum(c[i][r][t] * c[k - i][t][s] for i in range(k + 1) for t in range(3))
                assert got[k, r, s] == want % p


def test_kappa_at_a_large_prime():
    # with every entry p - 1 each trace sums 9 (p-1)^2 > 2^63; reduced per
    # matrix product it stays exact
    p = 1073741789
    alg = AlgebraDescriptor("gl", 3, p, 1)
    x = CurrentElement(alg, np.full((2, 3, 3), p - 1, dtype=np.int64))
    assert kappa_m(x, x) == 2 * 9 % p
    assert kappa_coeffs(np.stack([x.coeffs, x.coeffs]), x.coeffs, alg).tolist() == [18, 18]


def test_public_constructor_rejects_invalid_stacks():
    with pytest.raises(ValueError, match="shape"):
        CurrentElement(SL2, np.zeros((1, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        CurrentElement(SL2, np.zeros((2, 3, 3), dtype=np.int64))
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[1, 0, 0] = 1
    with pytest.raises(ValueError, match="traceless"):
        CurrentElement(SL2, bad)
    # a trace that vanishes only mod p is accepted, and the input is reduced
    ok = np.zeros((2, 2, 2), dtype=np.int64)
    ok[0, 0, 0], ok[0, 1, 1], ok[1, 0, 1] = 4, -1, -2
    x = CurrentElement(SL2, ok)
    assert x.coeffs[0, 0, 0] == 1 and x.coeffs[0, 1, 1] == 2 and x.coeffs[1, 0, 1] == 1


def _validated(x: CurrentElement) -> CurrentElement:
    return CurrentElement(x.alg, x.coeffs)


@given(algebras(), st.integers(0, 10 ** 6))
def test_arithmetic_results_pass_the_public_checks(alg, seed):
    # results built without checks are reduced int64 stacks that the public
    # constructor accepts unchanged
    rng = np.random.default_rng(seed)
    x, y = random_element(alg, rng), random_element(alg, rng)
    c = int(rng.integers(-10, 10))
    for z in (x + y, x - y, -x, x.scale(c), bracket(x, y), p_map(x),
              get_context(alg).from_coords(rng.integers(-5, 5, alg.dim_gm))):
        assert z.coeffs.dtype == np.int64
        assert z == _validated(z)
    assert x - y == CurrentElement(alg, x.coeffs - y.coeffs)
    assert x.scale(c) == CurrentElement(alg, x.coeffs * c)
    assert bracket(x, y) == CurrentElement(alg, x.mat_mult(y) - y.mat_mult(x))


@given(algebras(), st.integers(0, 10 ** 6))
def test_stack_forms_match_the_element_functions(alg, seed):
    rng = np.random.default_rng(seed)
    ctx = get_context(alg)
    xs = [random_element(alg, rng) for _ in range(5)]
    # nilpotent members, so the stacked test sees both answers
    xs += [CurrentElement.from_matrix(alg, [[0] * (alg.n - 1) + [1]] + [[0] * alg.n] * (alg.n - 1)),
           CurrentElement.zero(alg)]
    ys = xs[1:] + xs[:1]
    X = np.stack([x.coeffs for x in xs])
    Y = np.stack([y.coeffs for y in ys])
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert np.array_equal(bracket_coeffs(X, Y, alg)[i], bracket(x, y).coeffs)
        assert np.array_equal(p_map_coeffs(X, alg)[i], p_map(x).coeffs)
        assert kappa_coeffs(X, Y, alg)[i] == kappa_m(x, y)
        assert centralizer_dim_coeffs(X, alg)[i] == centralizer_dim(x)
        assert np.array_equal(ctx.ad_matrix(X)[i], ctx.ad_matrix(x))
    assert is_nilpotent_coeffs(X, alg).tolist() == [is_nilpotent(x) for x in xs]
    # nilpotent exactly when the matrix on R_m^n has a vanishing power
    size = alg.n * (alg.m + 1)
    assert [is_nilpotent(x) for x in xs] == [
        not np.any(linalg.matpow(flatten_regular(x), size, alg.p)) for x in xs]
    # one stack pairs with a single element by broadcasting
    assert np.array_equal(bracket_coeffs(X, xs[0].coeffs, alg)[2], bracket(xs[2], xs[0]).coeffs)
    # any leading shape
    XX = np.stack([X, Y])
    assert np.array_equal(p_map_coeffs(XX, alg)[1], p_map_coeffs(Y, alg))
    assert is_nilpotent_coeffs(XX, alg).shape == (2, len(xs))


@given(algebras(), st.integers(0, 10 ** 6))
def test_coords_and_from_coords_take_stacks(alg, seed):
    rng = np.random.default_rng(seed)
    ctx = get_context(alg)
    V = rng.integers(-alg.p, 2 * alg.p, (2, 3, ctx.dim))
    X = ctx.from_coords(V)
    assert X.shape == (2, 3, alg.m + 1, alg.n, alg.n) and X.dtype == np.int64
    for v, x in zip(V.reshape(-1, ctx.dim), X.reshape(-1, alg.m + 1, alg.n, alg.n)):
        assert np.array_equal(x, ctx.from_coords(v).coeffs)
        assert np.array_equal(ctx.coords(ctx.from_coords(v)), v % alg.p)
    assert np.array_equal(ctx.coords(X), V % alg.p)
    assert np.array_equal(ctx.basis_coeffs, np.stack([b.coeffs for b in ctx.basis]))
    assert np.array_equal(ctx.coords(ctx.basis_coeffs), np.eye(ctx.dim, dtype=np.int64))
    # an empty stack, as a filtered sample stack can be
    empty = X[:0, 0]
    assert ctx.coords(empty).shape == (0, ctx.dim)
    assert centralizer_dim_coeffs(empty, alg).shape == (0,)


def test_p_power_orbit_past_its_cap_raises_internal_error():
    # h^[p] = h: the orbit repeats at the second step
    assert _p_power_orbit(H, cap=2) == ([H], 0)
    with pytest.raises(InternalError, match="did not repeat within 1 steps"):
        _p_power_orbit(H, cap=1)


def test_jordan_matches_the_pinned_decompositions():
    # 520 elements over 13 algebras, half of them sparse, with the
    # semisimple part and class that the minimal-polynomial Newton
    # iteration gave (tests/data/jordan.json says how they were drawn)
    data = json.loads((Path(__file__).parent / "data" / "jordan.json").read_text())
    for kind, n, p, m, x, s, cls in data["cases"]:
        ctx = get_context(AlgebraDescriptor(kind, n, p, m))
        x = ctx.from_coords([int(c) for c in x])
        got, nil = jordan_decompose(x)
        assert "".join(map(str, ctx.coords(got))) == s
        assert got + nil == x and classify_element(x) == cls


def test_jordan_at_the_edges_of_the_orbit():
    # e + f t in sl2 p3 m4 is nilpotent of index 10 > 3^2: x^2k = t^k, so
    # x^[p] = e t + f t^2 and x^[p]^2 = e t^4 is not yet zero
    alg = AlgebraDescriptor("sl", 2, 3, 4)
    x = elem([[0, 1], [0, 0]], 0, alg) + elem([[0, 0], [1, 0]], 1, alg)
    assert p_map(p_map(x)) == elem([[0, 1], [0, 0]], 4, alg)
    orbit, start = _p_power_orbit(x)
    assert len(orbit) == 4 and orbit[-1].is_zero() and start == 3
    s, n = jordan_decompose(x)
    assert s.is_zero() and n == x and classify_element(x) == "nilpotent"
    # the companion matrix of x^3 + x + 1 over F_2 generates F_8: its own
    # Frobenius cycle, of length 3
    alg = AlgebraDescriptor("gl", 3, 2, 0)
    c = elem([[0, 0, 1], [1, 0, 1], [0, 1, 0]], 0, alg)
    orbit, start = _p_power_orbit(c)
    assert (len(orbit), start) == (3, 0)
    assert jordan_decompose(c)[0] == c and classify_element(c) == "semisimple"
    # c + t I in gl2 p3 m1, c the companion matrix of x^2 + 1: the orbit
    # c + t, -c, c, -c starts its cycle at 1 with length 2, and s = c sits
    # at index 2, not at the cycle start
    alg = AlgebraDescriptor("gl", 2, 3, 1)
    c = elem([[0, 2], [1, 0]], 0, alg)
    x = c + elem(np.eye(2, dtype=np.int64), 1, alg)
    orbit, start = _p_power_orbit(x)
    assert orbit == [x, -c, c] and start == 1
    s, n = jordan_decompose(x)
    assert s == c and n == elem(np.eye(2, dtype=np.int64), 1, alg)
    assert classify_element(x) == "mixed"


# ---------------------------------------------------------------------------
# R_m = F_p[t]/(t^{m+1}) on coefficient arrays: a ring element is a 1 × 1
# stack (m+1, 1, 1), a matrix over R_m an (m+1, n, n) stack


def ring(*coeffs):
    return np.array(coeffs, dtype=np.int64).reshape(-1, 1, 1)


def test_telescoping_product():
    # (1+t)(1-t) = 1 in F_3[t]/(t^2)
    assert _stack_mult(ring(1, 1), ring(1, 2), 3, 1).ravel().tolist() == [1, 0]


def test_truncation_kills_top():
    # t · t^m = 0 in R_3
    assert not _stack_mult(ring(0, 1, 0, 0), ring(0, 0, 0, 1), 3, 3).any()


def test_geometric_series_inverse():
    # the inverse of 1+t in R_2 is 1 - t + t^2
    assert invert_over_ring(ring(1, 1, 0), 3, 2).ravel().tolist() == [1, 2, 1]


def test_non_invertible_constant_term():
    with pytest.raises(NoSolution):
        invert_over_ring(ring(0, 1), 3, 1)


@st.composite
def ring_matrices(draw, n, count, p=5, m=2):
    """``count`` random n × n matrices over R_2 at p = 5."""
    size = (m + 1) * n * n
    return [np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)),
                     dtype=np.int64).reshape(m + 1, n, n) for _ in range(count)]


@given(st.sampled_from([1, 2]).flatmap(lambda n: ring_matrices(n, 3)))
def test_ring_axioms(abc):
    a, b, c = abc
    p, m = 5, 2

    def mult(x, y):
        return _stack_mult(x, y, p, m)

    one = np.zeros_like(a)
    one[0] = np.eye(a.shape[-1], dtype=np.int64)
    assert np.array_equal(mult((a + b) % p, c), (mult(a, c) + mult(b, c)) % p)
    assert np.array_equal(mult(c, (a + b) % p), (mult(c, a) + mult(c, b)) % p)
    assert np.array_equal(mult(mult(a, b), c), mult(a, mult(b, c)))
    assert np.array_equal(mult(a, one), a) and np.array_equal(mult(one, a), a)
    if a.shape[-1] == 1:
        assert np.array_equal(mult(a, b), mult(b, a))


@given(st.sampled_from([1, 2]).flatmap(lambda n: ring_matrices(n, 1)))
def test_inverse_roundtrip(drawn):
    (a,) = drawn
    p, m, n = 5, 2, a.shape[-1]
    if linalg.rank(a[0], p) < n:
        with pytest.raises(NoSolution):
            invert_over_ring(a, p, m)
    else:
        one = np.zeros_like(a)
        one[0] = np.eye(n, dtype=np.int64)
        assert np.array_equal(_stack_mult(a, invert_over_ring(a, p, m), p, m), one)


# every algebra of the acceptance grids and of the benchmark workloads, with
# the truncations that the suites build
GRID_ALGEBRAS = sorted({(kind, n, p, k) for kind, n, p, m in [
    ("sl", 2, 3, 4), ("sl", 2, 5, 2), ("gl", 2, 5, 2), ("gl", 2, 3, 3), ("gl", 2, 2, 1),
    ("gl", 3, 2, 1), ("gl", 3, 3, 1), ("gl", 3, 5, 1), ("sl", 3, 2, 1)]
    for k in range(m + 1)})


@pytest.mark.parametrize("kind,n,p,m", GRID_ALGEBRAS)
def test_generating_slots_close_to_the_span_of_gens(kind, n, p, m):
    ctx = get_context(AlgebraDescriptor(kind, n, p, m))
    deg0_torus = [i for i in ctx.torus_indices if ctx.meta[i].degree == 0]
    unit = np.eye(ctx.dim, dtype=np.int64)
    # the whole algebra, the Borel bases of Vermas and dual Vermas, the
    # torus and its degree-0 part
    for gens in (tuple(range(ctx.dim)), tuple(ctx.torus_indices + ctx.nplus_indices),
                 tuple(ctx.torus_indices + ctx.nminus_indices), tuple(ctx.torus_indices),
                 tuple(deg0_torus)):
        slots = ctx.generating_slots(gens)
        assert ctx.generating_slots(gens) is slots
        closure = ctx.restricted_closure([gens[s] for s in slots])
        assert closure.dim == len(gens) and all(closure.contains(unit[g]) for g in gens)
        if gens == tuple(range(ctx.dim)) and m >= 1:
            assert len(slots) < len(gens)


def test_generating_slots_of_the_workload_algebras():
    for desc, want in [(("gl", 2, 3, 3), 5), (("sl", 2, 3, 4), 3), (("gl", 2, 5, 2), 5),
                       (("gl", 3, 3, 1), 6), (("sl", 3, 2, 1), 5), (("sl", 2, 3, 1), 3)]:
        ctx = get_context(AlgebraDescriptor(*desc))
        assert len(ctx.generating_slots(range(ctx.dim))) == want
    # sl2 m1 from f, e and f t: h = [e, f], then the degree-1 part
    ctx = get_context(SL2)
    assert [ctx.meta[i].label for i in ctx.generating_slots(range(ctx.dim))] == [
        "f[12]", "e[12]", "f[12]*t^1"]
    # span(f, e) lacks h = [e, f], so every slot stays
    f, e = ctx.nminus_indices[0], ctx.nplus_indices[0]
    assert ctx.generating_slots((f, e)) == (0, 1)
    assert ctx.generating_slots(()) == ()


def test_p_map_at_a_large_prime():
    # binary powering: x^p for p = 2^31 - 1 without p - 1 products
    alg = AlgebraDescriptor("sl", 2, 2 ** 31 - 1, 1)
    p = alg.p
    h = elem([[1, 0], [0, -1]], 0, alg)
    e = elem([[0, 1], [0, 0]], 0, alg)
    assert p_map(h) == h and p_map(e).is_zero()
    x = elem([[3, 5], [7, -3]], 0, alg)
    # x^2 = 44 I, so x^p = 44^((p-1)/2) x
    assert p_map(x) == x.scale(pow(44, (p - 1) // 2, p))
