import numpy as np
import pytest

from currentrep.algebra import (AlgebraDescriptor, CurrentElement, bracket,
                                random_element, _dual_pairs, _ring_mult,
                                _stack_mult)
from currentrep.errors import BadIndex
from currentrep.invariants import (charpoly_over_ring, conjugate,
                                   eval_invariant, independence_check,
                                   invariance_check, _derivatives)

SL2 = AlgebraDescriptor("sl", 2, 3, 1)
E = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
H = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]])
Ht = CurrentElement.from_matrix(SL2, [[1, 0], [0, -1]], 1)


def test_eval_invariant_examples():
    assert [eval_invariant(2, j, E) for j in (0, 1)] == [0, 0]
    assert [eval_invariant(2, j, H) for j in (0, 1)] == [2, 0]
    assert [eval_invariant(2, j, H + Ht) for j in (0, 1)] == [2, 1]


def test_eval_invariant_bad_index():
    with pytest.raises(BadIndex):
        eval_invariant(1, 0, E)  # sl skips the trace coefficient
    with pytest.raises(BadIndex):
        eval_invariant(2, 5, E)


def test_degree_zero_component_is_classical():
    rng = np.random.default_rng(2)
    g3 = AlgebraDescriptor("gl", 3, 3, 1)
    g30 = AlgebraDescriptor("gl", 3, 3, 0)
    for _ in range(20):
        x = random_element(g3, rng)
        x0 = CurrentElement.from_matrix(g30, x.coeffs[0])
        small = charpoly_over_ring(x0)
        big = charpoly_over_ring(x)
        assert np.array_equal(big[:, 0], small[:, 0])


def test_berkowitz_matches_expansion_2x2():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        A = rng.integers(0, p, (2, 2))
        x = CurrentElement.from_matrix(AlgebraDescriptor("gl", 2, p, 0), A)
        cs = charpoly_over_ring(x)
        tr = int(np.trace(A)) % p
        det = int(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) % p
        assert cs[1, 0] == (-tr) % p
        assert cs[2, 0] == det


def test_cayley_hamilton_over_ring():
    # char poly annihilates the matrix over R_m (strong Berkowitz check)
    rng = np.random.default_rng(4)
    g2 = AlgebraDescriptor("gl", 2, 3, 1)
    for _ in range(25):
        x = random_element(g2, rng)
        cs = charpoly_over_ring(x)
        # det(XI - x) = X^2 + c1 X + c2; Horner: ((1·x + c1)·x + c2)
        acc = np.zeros_like(x.coeffs)
        acc[0] = np.eye(2, dtype=np.int64)
        for coeff in cs[1:]:
            acc = _stack_mult(acc, x.coeffs, 3, 1)
            acc = (acc + coeff[:, None, None] * np.eye(2, dtype=np.int64)) % 3
        assert not np.any(acc)


def scalar(*coeffs):
    """A ring element as a 1 × 1 coefficient array (K, 1, 1)."""
    return np.array(coeffs, dtype=np.int64).reshape(-1, 1, 1)


def test_dual_numbers_product_rule():
    # value part first, then the ε-part, over R_1[ε]/(ε²) at p = 3
    p, m = 3, 1
    av, ad, bv, bd = scalar(1, 2), scalar(2, 0), scalar(2, 1), scalar(1, 1)
    ab = _ring_mult(np.concatenate([av, ad]), np.concatenate([bv, bd]), _dual_pairs(m), p)
    assert np.array_equal(ab[:2], _stack_mult(av, bv, p, m))
    assert np.array_equal(ab[2:], (_stack_mult(av, bd, p, m) + _stack_mult(ad, bv, p, m)) % p)


def test_dual_derivative_matches_formal_derivative():
    # f(x) = x^3 + 2x over R_m scalars: derivative 3x^2 + 2 = 2
    p, m = 3, 1
    pairs = _dual_pairs(m)
    for c0 in range(3):
        for c1 in range(3):
            d = scalar(c0, c1, 1, 0)  # x + ε
            f = (_ring_mult(_ring_mult(d, d, pairs, p), d, pairs, p) + 2 * d) % p
            assert f[2:].ravel().tolist() == [2, 0]  # 3x² + 2 ≡ 2


def test_invariance_and_independence_sl2():
    assert invariance_check(SL2, 40, seed=11).ok
    rep = independence_check(SL2, 10, seed=12)
    assert rep.ok and rep.target_rank == 2


def test_invariance_and_independence_gl2_p2():
    g2 = AlgebraDescriptor("gl", 2, 2, 1)
    assert invariance_check(g2, 40, seed=13).ok
    rep = independence_check(g2, 10, seed=14)
    assert rep.ok and rep.target_rank == 4


def test_jacobian_vanishes_at_zero_sl():
    assert not _derivatives(CurrentElement.zero(SL2).coeffs, E.coeffs, SL2).any()


def test_identity_conjugation_trivial():
    rng = np.random.default_rng(15)
    x = random_element(SL2, rng)
    g = np.zeros((2, 2, 2), dtype=np.int64)
    g[0] = np.eye(2, dtype=np.int64)
    assert np.array_equal(charpoly_over_ring(x), charpoly_over_ring(conjugate(x, g)))


def test_unitriangular_conjugation_invariance():
    rng = np.random.default_rng(16)
    for _ in range(25):
        x = random_element(SL2, rng)
        g = np.zeros((2, 2, 2), dtype=np.int64)
        g[0] = np.eye(2, dtype=np.int64)
        g[1] = np.triu(rng.integers(0, 3, (2, 2)), 1)
        assert np.array_equal(charpoly_over_ring(x), charpoly_over_ring(conjugate(x, g)))


def test_ad_direction_derivative_vanishes():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_element(SL2, rng)
        y = random_element(SL2, rng)
        assert not _derivatives(x.coeffs, bracket(y, x).coeffs, SL2).any()


def test_charpoly_is_exact_at_the_largest_prime():
    # n (p-1)^2 is just below 2^63 for gl_2 at p = 2^31 - 1; the oracle is
    # the trace and determinant over R_1 in Python integers
    p = 2 ** 31 - 1
    alg = AlgebraDescriptor("gl", 2, p, 1)
    rng = np.random.default_rng(18)

    def mul(a, b):
        return [a[0] * b[0], a[0] * b[1] + a[1] * b[0]]

    def trace_det(A):
        a = [[[int(A[d, i, j]) for d in range(2)] for j in range(2)] for i in range(2)]
        det = [u - v for u, v in zip(mul(a[0][0], a[1][1]), mul(a[0][1], a[1][0]))]
        return [u + v for u, v in zip(a[0][0], a[1][1])], det, a

    for lo in [0, p - 4] * 25:  # entries anywhere, then all near p - 1
        A, V = rng.integers(lo, p, (2, 2, 2, 2))
        tr, det, a = trace_det(A)
        cs = charpoly_over_ring(CurrentElement(alg, A))
        assert cs[1].tolist() == [-c % p for c in tr]
        assert cs[2].tolist() == [c % p for c in det]
        # d/dε det(A + εV) = a00 v11 + v00 a11 - a01 v10 - v01 a10
        _, _, v = trace_det(V)
        terms = [mul(a[0][0], v[1][1]), mul(v[0][0], a[1][1]),
                 mul(a[0][1], v[1][0]), mul(v[0][1], a[1][0])]
        ddet = [(s + t - u - w) % p for s, t, u, w in zip(*terms)]
        assert _derivatives(A, V, alg)[2].tolist() == ddet
