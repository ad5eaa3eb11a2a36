"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy integer arrays with entries reduced to [0, p).  Matrix
products are computed through BLAS in floating point and reduced mod p
afterwards; this is exact as long as ``inner_dim * (p-1)**2`` stays below the
mantissa capacity, which is checked on every call, and past float64 the
product is taken over Python integers.  Row reduction is a vectorised
Gauss-Jordan elimination.  ``rank`` of a stack of matrices, shape
(..., r, c), runs one Gauss elimination over the whole stack; a matrix
keeps the ``rref`` path.

Reduce once.  This module is the only one that knows how F_p values are
held in flight: everything it hands out is an int64 array with entries in
[0, p).  The public functions (``matmul``, ``matpow``, ``rref``, ``rank``,
``kernel``, ``joint_kernel``, ``solve``, ``inv``) and the methods of
``Echelon`` and ``ActionStack`` reduce their arguments on entry with
``asmod``, which for a reduced array of 2048 or more entries is a range
check and a copy.  The private helpers (``_lift``, ``_times``, ``_rref``,
``_rref_naive``, ``_rref_blocked``, ``_rank_stack``, ``Echelon._cancel``)
trust their input to lie in [0, p) and never reduce it again; ``_times``
returns exact products unreduced in the float dtype of ``_lift``, and the
caller in this module reduces each such product once, before it leaves.
Elimination reduces lazily, in the narrowest exact integer dtype
(``_elim_dtype``): int16 while the lazy bound (rank + 1)(p-1)^2 + p stays
below 2^15, int32 below 2^31, int64 below 2^63, then int64 reduced at
every step while (p-1)^2 + p fits, and Python integers past that.  An
int64 matrix under ``_NARROW_CELLS`` entries is eliminated in place, since
converting it costs more than the narrow loop saves.  ``rref`` runs the
column loop ``_rref_naive`` up to ``_NAIVE_CELLS`` entries (the crossover
measured on square and tall matrices at p = 3 and 5) and the slab-blocked
``_rref_blocked``, whose slabs take the same narrow dtype, beyond it.  A
``modrep.ModuleRep`` holds its actions in one of two forms: the matrices it
was built from, reduced once where it stores them, or, from the first
product on, an :class:`ActionStack`, the read-only [A_1^T | ... | A_k^T]
in the exact dtype of ``_lift``, lifted once and kept in place of them.
The stack's methods give every product that the MeatAxe takes with the
actions (images of rows, θ A_i, columns of A_i) and each action itself,
reduced.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoSolution

_F32_CAP = 2 ** 24  # exact integer range of float32
_F64_CAP = 2 ** 53  # exact integer range of float64
_SMALL_MOD = 2048   # entries below which asmod takes a plain remainder
_NARROW_CELLS = 1024  # entries below which an int64 elimination is not narrowed
_NAIVE_CELLS = 300 * 300  # largest matrix that rref eliminates by the column loop


def asmod(a, p: int) -> np.ndarray:
    """A fresh int64 array with the entries of ``a`` reduced into [0, p).

    On large arrays the remainder runs only when some entry lies outside
    [0, p), since checking the range costs a small fraction of it, and it is
    taken as a - (a // p) p, which numpy computes about twice as fast as
    ``%``.  Below _SMALL_MOD entries one ``%`` costs less than those calls.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size < _SMALL_MOD:
        return a % p
    if a.view(np.uint64).max() < p:  # a negative entry reads as 2^63 or more
        return a.copy()
    q = a // p
    q *= p
    return np.subtract(a, q, out=q)


def matmul(a, b, p: int) -> np.ndarray:
    """Exact product ``a @ b`` over F_p via floating-point BLAS."""
    a = asmod(a, p)
    return asmod(_times(a, _lift([asmod(b, p)], p, a.shape[-1]), p), p)


def _float_dtype(inner: int, p: int):
    """Float dtype that holds a length-``inner`` dot product of residues exactly."""
    bound = inner * (p - 1) ** 2
    if bound < _F32_CAP:
        return np.float32
    if bound < _F64_CAP:
        return np.float64
    return None


def _lift(blocks, p: int, inner: int) -> np.ndarray:
    """Horizontal stack of blocks with entries in [0, p), as the right
    operand of :func:`_times` for products with inner dimension up to
    ``inner``: in the float dtype that holds them exactly, else int64."""
    dt = _float_dtype(inner, p) or np.int64
    return np.concatenate(blocks, axis=-1, dtype=dt, casting="unsafe")


def _times(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``a @ b`` for ``a`` with entries in [0, p) and ``b`` from
    :func:`_lift`: unreduced in b's float dtype, or, when b is int64
    (primes past float64), reduced mod p over Python integers."""
    if b.dtype == np.int64:
        return (a.astype(object) @ b.astype(object) % p).astype(np.int64)
    return np.matmul(a.astype(b.dtype), b)


def matpow(a, k: int, p: int) -> np.ndarray:
    """Exact k-th power over F_p of a square matrix, or of each matrix in a
    stack of them, by binary powering: floor(log2 k) squares and one product
    per further set bit of k."""
    a = asmod(a, p)
    if k == 0:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape).copy()
    out = None
    while True:
        if k & 1:
            out = a if out is None else matmul(out, a, p)
        k >>= 1
        if not k:
            return out
        a = matmul(a, a, p)


def _elim_dtype(n: int, p: int):
    """(dtype, lazy) for eliminating a matrix of rank at most n over F_p.

    Lazily, every entry moves by at most (p-1)^2 per pivot, so its
    magnitude stays below (n+1)(p-1)^2 + p, and the narrowest of int16,
    int32 and int64 that holds that bound runs the loop.  Past int64 the loop reduces every
    entry at each step while (p-1)^2 + p fits, and runs over Python
    integers beyond that.
    """
    bound = (n + 1) * (p - 1) ** 2 + p
    for bits, dt in ((15, np.int16), (31, np.int32), (63, np.int64)):
        if bound < 2 ** bits:
            return dt, True
    if (p - 1) ** 2 + p < 2 ** 63:
        return np.int64, False
    return object, True


def _rref_naive(R: np.ndarray, p: int, cap: int | None = None):
    """Reduced row echelon form of the integer matrix R, whose entries must
    lie in [0, p); R may be overwritten.

    Returns ``(rows, pivots, where)``: the nonzero rows (int64), their pivot
    columns and the input row index that each of them came from.  Only the
    pivot column and the pivot row are reduced at each step; every other
    entry moves by at most (p-1)^2 per step and is reduced once at the end,
    in the dtype of :func:`_elim_dtype`; a matrix under _NARROW_CELLS
    entries keeps its own integer dtype, which callers pass at least as
    wide.  With ``cap``, the loop stops at that many pivots, which is exact
    when the rows span at most ``cap`` dimensions.
    """
    rows, cols = R.shape
    dt, lazy = _elim_dtype(min(rows, cols), p)
    if dt is object or (R.dtype != dt and R.size >= _NARROW_CELLS):
        R = R.astype(dt)
    stop = rows if cap is None else min(rows, cap)
    where = np.arange(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == stop:
            break
        col = R[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
            col[[r, i]] = col[[i, r]]
            where[r], where[i] = where[i], where[r]
        # rows r.. are zero mod p left of c, so only columns c.. change
        prow = R[r, c:] % p * pow(int(col[r]), p - 2, p) % p
        col[r] = 0
        R[:, c:] -= col[:, None] * prow
        if not lazy:
            R[:, c:] %= p
        R[r, c:] = prow
        pivots.append(c)
        r += 1
    return (R[:r] % p).astype(np.int64, copy=False), pivots, where[:r]


def _rref_blocked(R: np.ndarray, p: int, nb: int = 16, cap: int | None = None):
    """Blocked Gauss-Jordan: pivots found on a narrow slab, bulk updates via GEMM.

    The matrix is held in a float dtype and only the slab and the new pivot
    rows are reduced mod p, in the integer dtype of :func:`_elim_dtype`.
    Each entry takes at most one update per slab, of size at most k (p-1)^2
    for k new pivots, so it stays below rank (p-1)^2 + p, which both dtypes
    hold exactly.  Primes too large for float64 take the plain loop.
    """
    rows, cols = R.shape
    dt = _float_dtype(min(rows, cols) + 1, p)
    if dt is None:
        return _rref_naive(R, p, cap)[:2]
    it = _elim_dtype(min(rows, cols), p)[0]
    F = R.astype(dt)
    stop = rows if cap is None else min(rows, cap)
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < cols and r < stop:
        c1 = min(c0 + nb, cols)
        S = F[:, c0:c1].astype(it) % p
        _, slab_pivots, worig = _rref_naive(S[r:].copy(), p)
        if slab_pivots:
            k = len(slab_pivots)
            chosen = worig + r
            keep = np.ones(rows, dtype=bool)
            keep[:r] = False
            keep[chosen] = False
            rest = np.flatnonzero(keep)
            # the chosen rows span the slab rows from r on; their reduced
            # echelon form, with identity on the slab pivots, is the new
            # pivot block
            P = _rref_naive(F[chosen, c0:].astype(it) % p, p)[0].astype(dt)
            top = S[:r, slab_pivots].astype(dt)
            bottom = S[rest][:, slab_pivots].astype(dt)
            F[r + k:, c0:] = F[rest, c0:]
            F[r:r + k, c0:] = P
            F[:r, c0:] -= top @ P
            F[r + k:, c0:] -= bottom @ P
            pivots.extend(c0 + c for c in slab_pivots)
            r += k
        c0 = c1
    return F[:r].astype(np.int64) % p, pivots


def rref(a, p: int):
    """Reduced row echelon form over F_p.

    Returns ``(R, pivots)`` where R holds the nonzero rows (each pivot column
    reduced to a standard basis column) and ``pivots`` lists the pivot column
    indices, so ``len(pivots)`` is the rank.
    """
    R = asmod(a, p)
    if R.ndim != 2:
        raise ValueError("rref expects a matrix")
    return _rref(R, p)


def _rref(R: np.ndarray, p: int, cap: int | None = None):
    """:func:`rref` of the int64 matrix R, whose entries must lie in [0, p),
    computed in place; ``cap`` as in :func:`_rref_naive`."""
    rows, cols = R.shape
    if rows <= 16 or cols <= 128 or rows * cols <= _NAIVE_CELLS:
        return _rref_naive(R, p, cap)[:2]
    return _rref_blocked(R, p, cap=cap)


def rank(a, p: int):
    """Rank of a matrix; for a stack of matrices, shape (..., r, c), the
    int64 array of their ranks, of the leading shape."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return len(rref(a, p)[1])
    lead = a.shape[:-2]
    return _rank_stack(asmod(a, p).reshape(math.prod(lead), *a.shape[-2:]), p).reshape(lead)


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse of nonzero residues (x^(p-2) by binary powering)."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _rank_stack(R: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the matrices of the int64 stack R, shape (B, r, c), whose
    entries must lie in [0, p), by one Gauss elimination over the batch,
    computed in place.

    Column by column, each matrix takes as pivot its first unused row that
    is nonzero there and clears that column from its other unused rows; a
    matrix with no such row takes a zero update.  No rows move.  As in
    :func:`_rref_naive`, only the pivot column and the pivot rows are
    reduced at each step, unless the lazy updates could leave int64, and
    the stack stays int64 unless its products need Python integers.
    """
    B, rows, cols = R.shape
    dt, lazy = _elim_dtype(min(rows, cols), p)
    if dt is object:
        R = R.astype(object)
    batch = np.arange(B)
    used = np.zeros((B, rows), dtype=bool)
    for c in range(cols):
        col = R[:, :, c] % p
        col[used] = 0
        has = col.any(axis=1)
        if not has.any():
            continue
        i = (col != 0).argmax(axis=1)
        pivot = np.where(has, col[batch, i], 1)
        prow = R[batch, i, c:] % p * _inverse_mod(pivot, p)[:, None] % p
        used[batch[has], i[has]] = True
        col[batch, i] = 0
        R[:, :, c:] -= col[:, :, None] * prow[:, None, :]
        if not lazy:
            R[:, :, c:] %= p
    return used.sum(axis=1)


def kernel(a, p: int) -> np.ndarray:
    """Basis of the right null space, one vector per row.

    The basis is in reduced echelon shape with respect to the free columns.
    """
    R, piv = rref(a, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    if piv:
        out[:, piv] = (-R[:, free].T) % p
    return out


def joint_kernel(mats, p: int) -> np.ndarray:
    """Basis of the common right null space of one or more matrices, the
    same basis that ``kernel(np.vstack(mats))`` returns.

    The kernels are intersected one matrix at a time, so each elimination
    sees one matrix restricted to the space left so far; ``mats`` may be any
    iterable, read one matrix at a time and no further once the space left
    is zero.  The reduced echelon basis of the result with its columns
    reversed has its pivots on the free columns; read back in the original
    order, that is the basis in reduced echelon shape with respect to the
    free columns.
    """
    mats = iter(mats)
    K = kernel(next(mats), p)
    for a in mats:
        if not K.shape[0]:
            break
        K = matmul(kernel(matmul(a, K.T, p), p), K, p)
    return rref(K[:, ::-1], p)[0][::-1, ::-1]


def solve(a, b, p: int) -> np.ndarray:
    """Solve ``a @ x = b`` exactly; raises :class:`NoSolution` if inconsistent.

    b may be a vector or a matrix of stacked right-hand-side columns; a
    particular solution is returned (free variables set to zero).
    """
    a = asmod(a, p)
    b = asmod(b, p)
    vec = b.ndim == 1
    if vec:
        b = b.reshape(-1, 1)
    rows, cols = a.shape
    aug = np.hstack([a, b])
    R, piv = rref(aug, p)
    for c in piv:
        if c >= cols:
            raise NoSolution("inconsistent linear system")
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = R[i, cols:]
    return x.ravel() if vec else x


def inv(a, p: int) -> np.ndarray:
    """Exact inverse of a square matrix over F_p."""
    a = asmod(a, p)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    R, piv = rref(aug, p)
    if piv != list(range(n)):
        raise NoSolution("matrix is singular over F_p")
    return R[:, n:]


class Echelon:
    """Growing reduced row echelon basis of a subspace of F_p^n.

    Supports batch insertion with GEMM-based reduction, membership residuals
    and coordinate extraction.  Used heavily by the spinning routines.  The
    rows are kept, reduced, as int64 and, while they do not change, as the
    float operand ``lifted_rows`` of every residual product.
    """

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.rows = np.zeros((0, n), dtype=np.int64)
        self.pivots: list[int] = []
        self._lifted = None

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def lifted_rows(self) -> np.ndarray:
        """``rows`` as the right operand of :func:`_times` for inner
        dimensions up to n; built on first use after the rows change."""
        if self._lifted is None:
            self._lifted = _lift([self.rows], self.p, self.n)
        return self._lifted

    def _cancel(self, w: np.ndarray) -> np.ndarray:
        """w minus the combination of the rows given by its pivot entries,
        mod p, for a matrix w with entries in [0, p); zero exactly on the
        rows of w inside the span."""
        if not self.dim:
            return w
        x = _times(w[:, self.pivots], self.lifted_rows, self.p).astype(np.int64, copy=False)
        np.subtract(w, x, out=x)
        x %= self.p
        return x

    def residual(self, w: np.ndarray) -> np.ndarray:
        """Reduce row vectors against the current basis (no insertion)."""
        w = asmod(w, self.p)
        single = w.ndim == 1
        w = self._cancel(w.reshape(1, -1) if single else w)
        return w[0] if single else w

    def add_rows(self, w: np.ndarray) -> np.ndarray:
        """Insert row vectors; returns reduced echelon rows that were new."""
        p = self.p
        w = asmod(w, p)
        w = self._cancel(w.reshape(1, -1) if w.ndim == 1 else w)
        # rows inside the span leave zero residuals; the reduced echelon form
        # of the rest is the same.  The residuals vanish on the pivot
        # columns, so they span at most n - dim dimensions
        R, piv = _rref(w[w.any(axis=1)], p, self.n - self.dim)
        if not piv:
            return np.zeros((0, self.n), dtype=np.int64)
        if self.dim:
            # clear the new pivot columns from the old rows
            coef = self.rows[:, piv]
            if np.any(coef):
                x = _times(coef, _lift([R], p, len(piv)), p).astype(np.int64, copy=False)
                np.subtract(self.rows, x, out=x)
                x %= p
                self.rows = x
        self.rows = np.vstack([self.rows, R])
        self.pivots.extend(piv)
        order = np.argsort(self.pivots, kind="stable")
        self.rows = self.rows[order]
        self.pivots = [self.pivots[i] for i in order]
        self._lifted = None
        return R

    def contains(self, w) -> bool:
        return not np.any(self.residual(w))

    def coords(self, w: np.ndarray) -> np.ndarray:
        """Coordinates of row vectors in the echelon basis; raises if outside."""
        w = asmod(w, self.p)
        single = w.ndim == 1
        if single:
            w = w.reshape(1, -1)
        coef = w[:, self.pivots]
        if np.any(self._cancel(w)):
            raise NoSolution("vector outside the spanned subspace")
        return coef[0] if single else coef


class ActionStack:
    """k actions A_1, ..., A_k on F_p^d (acting on column vectors), lifted once.

    ``lifted`` is the read-only (k, d, d) array of the transposes A_i^T, the
    blocks of [A_1^T | ... | A_k^T], in the dtype of :func:`_lift` for inner
    dimensions up to max(d, k): int64 once no float dtype is exact.  The
    products with the actions are methods, each one product against the
    stack, reduced once.  The actions must have entries in [0, p).  They
    come as a sequence of d × d matrices or as a (k, d, d) array, which
    states d also when there are no actions.  ``slots`` lists actions such
    that a subspace stable under them is stable under every action (all of
    them unless given); the stacks derived from this one keep them.
    """

    def __init__(self, actions, p: int, slots=None):
        k = len(actions)
        d = actions.shape[-1] if isinstance(actions, np.ndarray) else np.shape(actions[0])[0]
        lifted = np.empty((k, d, d), dtype=_float_dtype(max(d, k), p) or np.int64)
        for At, A in zip(lifted, actions):
            At[...] = np.asarray(A).T
        lifted.flags.writeable = False
        self.lifted = lifted
        self.p = p
        self.k = k
        self.d = d
        self.slots = tuple(range(k)) if slots is None else tuple(slots)
        self._slot_lifted = lifted if len(self.slots) == k else lifted[list(self.slots)]

    def __len__(self) -> int:
        return self.k

    def __iter__(self):
        """The actions, as fresh int64 matrices."""
        for i in range(self.k):
            yield self.action(i)

    def action(self, i: int) -> np.ndarray:
        """A_i as a fresh int64 matrix."""
        return self.lifted[i].T.astype(np.int64, order="C")

    def _product(self, a, blocks) -> np.ndarray:
        """``a`` (reduced on entry) times blocks of the stack, reduced."""
        return asmod(_times(asmod(a, self.p), blocks, self.p), self.p)

    def images(self, rows) -> np.ndarray:
        """(k, r, d): the images A_i v of the rows v of ``rows`` under every
        action, as rows, generator by generator."""
        return self._product(rows, self.lifted)

    def slot_images(self, rows) -> np.ndarray:
        """(len(slots), r, d): the images of the rows under the actions of
        ``slots``, as rows, slot by slot."""
        return self._product(rows, self._slot_lifted)

    def image(self, rows, i: int) -> np.ndarray:
        """(r, d): the images A_i v of the rows v of ``rows``, as rows."""
        return self._product(rows, self.lifted[i])

    def premultiplied(self, theta, i: int) -> np.ndarray:
        """θ A_i for a matrix θ with d columns."""
        return self._product(theta, self.lifted[i].T)

    def columns(self, cols) -> np.ndarray:
        """(k, len(cols), d): the columns ``cols`` of every A_i, as rows."""
        return asmod(self.lifted[:, cols], self.p)

    def combination(self, coeffs) -> np.ndarray:
        """Σ c_i A_i mod p as an int64 matrix, for a coefficient row c or for
        each row of a (..., k) stack: one contraction of the stack."""
        d, k, p = self.d, self.k, self.p
        c = np.asarray(coeffs, dtype=np.int64) % p
        out = _times(c.reshape(math.prod(c.shape[:-1]), k), self.lifted.reshape(k, d * d), p)
        return asmod(out.reshape(*c.shape[:-1], d, d).swapaxes(-1, -2), p)

    def transposed(self) -> "ActionStack":
        """The stack of A_1^T, ..., A_k^T, with the same slots."""
        return ActionStack(self.lifted, self.p, self.slots)
