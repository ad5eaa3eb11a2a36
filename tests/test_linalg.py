import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from currentrep import linalg
from currentrep.errors import NoSolution


def test_identity_rank_and_kernel():
    eye = np.eye(4, dtype=np.int64)
    assert linalg.rank(eye, 3) == 4
    assert linalg.kernel(eye, 3).shape == (0, 4)


def test_zero_matrix_rank():
    assert linalg.rank(np.zeros((3, 5), dtype=np.int64), 5) == 0


def test_adjoint_of_e_on_sl2():
    # ad(e) in the basis {e, h, f}: [e,e]=0, [e,h]=-2e, [e,f]=h
    p = 3
    ad_e = np.array([[0, 1, 0], [0, 0, 2], [0, 0, 0]])  # columns = images mod 3
    ad_e = np.array([[0, (-2) % p, 0], [0, 0, 1], [0, 0, 0]])
    assert linalg.rank(ad_e, p) == 2
    ker = linalg.kernel(ad_e, p)
    assert ker.shape[0] == 1 and ker[0][0] == 1 and ker[0][1] == 0 and ker[0][2] == 0


def test_solve_inconsistent():
    A = np.array([[1, 0], [1, 0]])
    with pytest.raises(NoSolution):
        linalg.solve(A, np.array([1, 2]), 3)


@given(st.integers(0, 10 ** 6), st.sampled_from([None, (40, 45, 3), (70, 30, 30)]))
@example(0, (40, 45, 3))   # rank 3: every 7-column slab has fewer than 7 pivots
@example(0, (70, 30, 30))  # more rows than columns
def test_rref_blocked_matches_naive(seed, shape):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3, 5]))
    if shape is None:
        rows = int(rng.integers(1, 60))
        cols = int(rng.integers(1, 60))
        r = int(rng.integers(1, min(rows, cols) + 1))
    else:
        rows, cols, r = shape
    A = linalg.matmul(rng.integers(0, p, (rows, r)), rng.integers(0, p, (r, cols)), p)
    R1, p1, _ = linalg._rref_naive(A.copy(), p)
    R2, p2 = linalg._rref_blocked(A.copy(), p, nb=7)
    assert p1 == p2
    assert np.array_equal(R1, R2)
    # stopping at the rank gives the same rows
    for R3, p3 in (linalg._rref_naive(A.copy(), p, cap=len(p1))[:2],
                   linalg._rref_blocked(A.copy(), p, nb=7, cap=len(p1))):
        assert p3 == p1 and np.array_equal(R3, R1)


@given(st.integers(0, 10 ** 6))
def test_kernel_annihilates(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3, 5]))
    A = rng.integers(0, p, (12, 17))
    K = linalg.kernel(A, p)
    assert K.shape[0] == 17 - linalg.rank(A, p)
    if K.shape[0]:
        assert not np.any(linalg.matmul(A, K.T, p))


@given(st.integers(0, 10 ** 6))
def test_solve_particular(seed):
    rng = np.random.default_rng(seed)
    p = 5
    A = rng.integers(0, p, (9, 7))
    x = rng.integers(0, p, 7)
    b = linalg.matmul(A, x.reshape(-1, 1), p).ravel()
    sol = linalg.solve(A, b, p)
    assert np.array_equal(linalg.matmul(A, sol.reshape(-1, 1), p).ravel(), b)


def test_echelon_incremental_matches_batch():
    rng = np.random.default_rng(0)
    p = 3
    rows = rng.integers(0, p, (20, 12))
    ech = linalg.Echelon(12, p)
    for r in rows:
        ech.add_rows(r.reshape(1, -1))
    R, piv = linalg.rref(rows, p)
    assert np.array_equal(ech.rows, R)
    assert ech.pivots == piv
    coords = ech.coords(rows)
    assert np.array_equal(linalg.matmul(coords, ech.rows, p), rows % p)


def _textbook_rref(A, p):
    R = [[int(x) % p for x in row] for row in A]
    rows, cols = len(R), len(R[0])
    pivots, r = [], 0
    for c in range(cols):
        i = next((i for i in range(r, rows) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for j in range(rows):
            if j != r and R[j][c]:
                f = R[j][c]
                R[j] = [(x - f * y) % p for x, y in zip(R[j], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return np.array(R[:r], dtype=np.int64).reshape(r, cols), pivots


# the dtype of the column loop at the boundaries of int16 and int32
LOOP_DTYPES = {(226, 226, 13): np.int16, (227, 227, 13): np.int32, (40, 60, 127): np.int32}


@pytest.mark.parametrize("rows,cols,p", [(20, 4600, 3), (40, 2300, 5), (30, 3100, 131),
                                         (20, 4600, 10000019),
                                         (20, 140, 3), (40, 150, 5), (30, 130, 131),
                                         (20, 140, 10000019), (9, 12, 10000019),
                                         (9, 12, 2 ** 31 - 1), *LOOP_DTYPES])
def test_rref_matches_textbook_elimination(rows, cols, p):
    # the first four shapes are past the crossover (_NAIVE_CELLS) and take
    # the blocked path; the others take the column loop, narrowed to int16
    # or int32 from 1024 entries on, and the two smallest stay int64,
    # reducing lazily at p = 10000019 and at every step at p = 2^31 - 1
    if (rows, cols, p) in LOOP_DTYPES:
        assert linalg._elim_dtype(min(rows, cols), p) == (LOOP_DTYPES[rows, cols, p], True)
    rng = np.random.default_rng(rows + cols)
    A = rng.integers(0, p, (rows, cols))
    A[:, 3] = A[:, 1]
    A[:, 7] = 0
    R0, p0 = _textbook_rref(A, p)
    R1, p1 = linalg.rref(A, p)
    assert p1 == p0
    assert R1.dtype == np.int64 and np.array_equal(R1, R0)


def _py_mul(a, b, p):
    """a @ b mod p over Python integers."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 4294967291])
def test_products_past_float64_are_exact(p):
    # every entry p - 1: the sum 4 (p-1)^2 leaves int64 at p = 4294967291
    a = np.full((2, 4), p - 1, dtype=np.int64)
    b = np.full((4, 2), p - 1, dtype=np.int64)
    assert linalg.matmul(a, b, p).tolist() == [[4, 4], [4, 4]]
    rng = np.random.default_rng(p % 1000)
    a = rng.integers(0, p, (5, 7))
    b = rng.integers(0, p, (7, 3))
    assert np.array_equal(linalg.matmul(a, b, p), _py_mul(a, b, p))
    # operands outside [0, p) are reduced on entry
    assert np.array_equal(linalg.matmul(a + p, b - 2 * p, p), _py_mul(a, b, p))


@pytest.mark.parametrize("p", [3, 131, 2 ** 31 - 1])
def test_echelon_queries_between_insertions_match_a_fresh_basis(p):
    # residual and coords run before and after every insertion, so a float
    # copy of the rows that outlives an insertion shows up as a mismatch
    rng = np.random.default_rng(p % 97)
    n = 10
    ech = linalg.Echelon(n, p)
    inserted = []
    for i in range(4):
        probe = rng.integers(0, p, (3, n))
        before = ech.residual(probe)
        batch = rng.integers(0, p, (2, n))
        batch[:, -2:] = 0
        if i == 2:
            # zero rows, and a row whose residual is zero
            batch = np.vstack([np.zeros((2, n), dtype=np.int64), batch, inserted[0][1:]])
        ech.add_rows(batch)
        inserted.append(batch)
        fresh = linalg.Echelon(n, p)
        fresh.add_rows(np.vstack(inserted))
        assert ech.pivots == fresh.pivots
        assert np.array_equal(ech.rows, fresh.rows)
        R, piv = linalg.rref(np.vstack(inserted), p)
        assert ech.pivots == piv and np.array_equal(ech.rows, R)
        assert np.array_equal(ech.residual(probe), fresh.residual(probe))
        assert not np.array_equal(ech.residual(probe), before)
        coef = rng.integers(0, p, (3, ech.dim))
        assert np.array_equal(ech.coords(_py_mul(coef, ech.rows, p)), coef)
        assert ech.contains(_py_mul(coef, ech.rows, p)[0])
        with pytest.raises(NoSolution):
            ech.coords(np.eye(n, dtype=np.int64)[-1])


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 9),
       st.integers(0, 10 ** 6))
def test_joint_kernel_matches_stacked_kernel(p, nmats, cols, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.integers(0, p, (int(rng.integers(1, 4)), cols)) for _ in range(nmats)]
    want = linalg.kernel(np.vstack(mats), p)
    got = linalg.joint_kernel(mats, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_joint_kernel_single_matrix_and_empty_intersection(p):
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, (2, 6))
    assert np.array_equal(linalg.joint_kernel([A], p), linalg.kernel(A, p))
    # the kernels, span(e_0 - e_1, e_2) and span(e_1), meet in zero
    mats = [np.array([[1, 1, 0]]), np.array([[0, 0, 1], [1, 0, 0]])]
    assert linalg.joint_kernel(mats, p).shape == (0, 3)
    assert linalg.joint_kernel([np.eye(4, dtype=np.int64), A[:, :4]], p).shape == (0, 4)


@pytest.mark.parametrize("p", [3, 131, 2 ** 31 - 1])
def test_action_stack_holds_the_actions(p):
    # p = 2^31 - 1 takes the int64 branch: no float dtype holds the products
    rng = np.random.default_rng(p % 97)
    acts = [rng.integers(0, p, (5, 5)) for _ in range(3)]
    stack = linalg.ActionStack(acts, p)
    assert (stack.lifted.dtype == np.int64) == (p > 131)
    assert stack.k == len(stack) == 3 and stack.d == 5
    for A, At, B in zip(acts, stack.lifted, stack):
        assert np.array_equal(At, A.T) and np.array_equal(B, A) and B.dtype == np.int64
    for A, B in zip(acts, stack.transposed()):
        assert np.array_equal(B, A.T)
    with pytest.raises(ValueError):
        stack.lifted[0, 0, 0] = 1
    v = rng.integers(0, p, (2, 5))
    imgs = np.asarray(stack.images(v), dtype=np.int64) % p
    c = rng.integers(0, p, 3)
    comb = np.zeros((5, 5), dtype=object)
    theta = rng.integers(0, p, (4, 5))
    cols = [4, 0, 2]
    got_cols = stack.columns(cols)
    assert got_cols.dtype == np.int64 and got_cols.shape == (3, 3, 5)
    for i, A in enumerate(acts):
        want = (A.astype(object) @ v.T.astype(object) % p).T
        assert np.array_equal(imgs[i], want.astype(np.int64))
        comb += int(c[i]) * A.astype(object)
        # every product method returns reduced int64
        for got, ref in [(stack.images(v)[i], want), (stack.image(v, i), want),
                         (stack.premultiplied(theta, i), _py_mul(theta, A, p)),
                         (got_cols[i], A[:, cols].T)]:
            assert got.dtype == np.int64
            assert np.array_equal(got, np.asarray(ref, dtype=np.int64))
    assert np.array_equal(stack.combination(c), (comb % p).astype(np.int64))
    # a stack of coefficient rows gives one combination per row
    rows = np.stack([c, (c + 1) % p, 0 * c]).reshape(3, 1, 3)
    assert np.array_equal(stack.combination(rows)[:, 0],
                          [stack.combination(row[0]) for row in rows])


@pytest.mark.parametrize("n", [2, 64])
def test_asmod_returns_a_reduced_copy(n):
    # n = 64 takes the range check and the floor-division remainder
    p = 7
    rng = np.random.default_rng(n)
    a = rng.integers(0, p, (n, n))
    out = linalg.asmod(a, p)
    assert np.array_equal(out, a) and out is not a
    out[0, 0] = (out[0, 0] + 1) % p
    assert out[0, 0] != a[0, 0]
    for bad in (-15, -7, -1, 7, 8, 2 ** 62 + 5):
        b = a.copy()
        b[-1, -1] = bad
        assert np.array_equal(linalg.asmod(b, p), b % p)
    assert np.array_equal(linalg.asmod(a + 7.0, p), a)


@st.composite
def stacks(draw):
    """(stack, p): matrices of chosen ranks, tall, wide or square, with
    members of rank 0 and of full rank among them."""
    p = draw(st.sampled_from([2, 3, 5, 131, 2 ** 31 - 1]))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    seed = draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    full = min(rows, cols)
    ranks = [0, full] + [int(r) for r in rng.integers(0, full + 1, draw(st.integers(0, 6)))]
    mats = [_py_mul(rng.integers(0, p, (rows, r)), rng.integers(0, p, (r, cols)), p)
            if r else np.zeros((rows, cols), dtype=np.int64) for r in ranks]
    # a full-rank member: the leading minor is the identity
    mats[1][:full, :full] = np.eye(full, dtype=np.int64)
    order = rng.permutation(len(mats))
    return np.stack([mats[i] for i in order]), p


@given(stacks())
def test_rank_of_a_stack_matches_each_matrix(case):
    A, p = case
    got = linalg.rank(A, p)
    assert got.dtype == np.int64 and got.shape == (len(A),)
    assert got.tolist() == [linalg.rank(a, p) for a in A]
    assert 0 in got.tolist() and min(A.shape[1:]) in got.tolist()
    # leading batch axes of any shape, and unreduced entries
    two = np.stack([A, (A + p) % p])
    assert np.array_equal(linalg.rank(two - p, p), np.stack([got, got]))


def test_rank_of_empty_stacks():
    assert linalg.rank(np.zeros((0, 3, 4), dtype=np.int64), 5).shape == (0,)
    assert linalg.rank(np.zeros((2, 0, 4), dtype=np.int64), 5).tolist() == [0, 0]
    assert linalg.rank(np.zeros((2, 3, 0), dtype=np.int64), 5).tolist() == [0, 0]


def test_action_stack_over_no_generators_keeps_its_dimension():
    stack = linalg.ActionStack(np.zeros((0, 4, 4), dtype=np.int64), 3)
    assert stack.k == len(stack) == 0 and stack.d == 4
    assert stack.images(np.eye(4, dtype=np.int64)).shape == (0, 4, 4)
    assert stack.transposed().d == 4


def test_elimination_past_int64_products_is_exact():
    # (p - 1)^2 >= 2^63: the loops run over Python integers
    p = 4294967291
    assert linalg._elim_dtype(1, p) == (object, True)
    rng = np.random.default_rng(11)
    for shape in ((6, 6), (5, 5), (4, 7)):
        A = rng.integers(0, p, shape)
        R0, p0 = _textbook_rref(A, p)
        R1, p1 = linalg.rref(A, p)
        assert p1 == p0 and np.array_equal(R1, R0)
        K = linalg.kernel(A, p)
        assert K.shape[0] == shape[1] - len(p0) and not _py_mul(A, K.T, p).any()
        x = rng.integers(0, p, shape[1])
        b = _py_mul(A, x.reshape(-1, 1), p).ravel()
        assert np.array_equal(_py_mul(A, linalg.solve(A, b, p).reshape(-1, 1), p).ravel(), b)
        if shape[0] == shape[1]:
            assert np.array_equal(_py_mul(A, linalg.inv(A, p), p), np.eye(shape[0], dtype=np.int64))
    A = rng.integers(0, p, (6, 6))
    B = A.copy()
    B[:, 5] = (B[:, 0] + B[:, 1]) % p
    assert linalg.rank(np.stack([A, B, 0 * A]), p).tolist() == [
        len(_textbook_rref(M, p)[1]) for M in (A, B)] + [0]


@pytest.mark.parametrize("p", [2, 3, 131])
def test_matpow_matches_repeated_products(p, monkeypatch):
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, (4, 6, 6))
    want = np.broadcast_to(np.eye(6, dtype=np.int64), A.shape).copy()
    for k in range(9):
        assert np.array_equal(linalg.matpow(A, k, p), want)
        assert np.array_equal(linalg.matpow(A[1], k, p), want[1])
        want = np.array([w @ a % p for w, a in zip(want, A)])
    # x^3 = x · x^2: one square and one product, none with the identity
    calls = []
    matmul = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", lambda a, b, q: calls.append(1) or matmul(a, b, q))
    linalg.matpow(A, 3, p)
    assert len(calls) == 2
