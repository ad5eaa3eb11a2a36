"""Output checks computed apart from currentrep.linalg.

Everything here is plain numpy int64 arithmetic reduced mod p.  Entries are
below p and dimensions stay in the thousands, so no product overflows.
The module structure of g_m is rebuilt from the basis matrices alone: the
bracket and the p-map are truncated polynomial matrix products, and
coordinates come from an independent elimination.

:class:`CheckRound` wraps the producing functions during one untimed round
and checks their outputs as they appear; each check is one operation.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from patching import Patches

# -- F_p linear algebra --------------------------------------------------


def mulmod(a, b, p):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def row_reduce(a, p):
    """(reduced echelon rows, pivot columns) by Gauss-Jordan elimination."""
    R = np.asarray(a, dtype=np.int64) % p
    R = R.reshape(-1, R.shape[-1]).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        col = R[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            R[hit] = (R[hit] - np.outer(col[hit], R[r])) % p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank_mod(a, p) -> int:
    return len(row_reduce(a, p)[1])


# -- the algebra g_m from its basis matrices ------------------------------


def stack_mul(a, b, p):
    """Product of coefficient stacks over F_p[t]/(t^{m+1})."""
    m1 = a.shape[0]
    out = np.zeros_like(a)
    for i in range(m1):
        for j in range(m1 - i):
            out[i + j] += a[i] @ b[j]
    return out % p


class Structure:
    """Bracket, p-map, character values and coordinates on g_m."""

    def __init__(self, ctx):
        self.alg = ctx.alg
        self.p = ctx.alg.p
        self.basis = np.stack([b.coeffs for b in ctx.basis]).astype(np.int64) % self.p
        flat = self.basis.reshape(len(self.basis), -1)
        # coordinates c of a flattened element v solve c @ flat = v; on the
        # pivot columns of flat that system is square and invertible
        cols = row_reduce(flat, self.p)[1]
        if len(cols) != len(flat):
            raise ValueError("basis matrices are linearly dependent")
        aug = np.hstack([flat[:, cols].T, np.eye(len(cols), dtype=np.int64)])
        self._cols = cols
        self._solve = row_reduce(aug, self.p)[0][:, len(cols):]   # inverse of flat[:, cols].T
        self._flat = flat

    def element(self, coeffs):
        """Element stack from basis coordinates."""
        return np.tensordot(np.asarray(coeffs, dtype=np.int64), self.basis, axes=1) % self.p

    def coords(self, x):
        """Basis coordinates of an element stack; None if it lies outside g_m."""
        v = x.reshape(-1) % self.p
        c = mulmod(self._solve, v[self._cols], self.p)
        if not np.array_equal(mulmod(c, self._flat, self.p), v):
            return None
        return c

    def bracket(self, x, y):
        return (stack_mul(x, y, self.p) - stack_mul(y, x, self.p)) % self.p

    def p_map(self, x):
        out = x
        for _ in range(self.p - 1):
            out = stack_mul(out, x, self.p)
        return out

    def char_value(self, chi_dual, x) -> int:
        """χ(x): t^m coefficient of Tr(dual · x) over F_p[t]/(t^{m+1})."""
        m = self.alg.m
        return int(sum(np.trace(chi_dual[i] @ x[m - i]) for i in range(m + 1))) % self.p


# -- checks ---------------------------------------------------------------


def _act(actions, coeffs, W, p):
    """ρ(x) W for x = Σ coeffs[i] gens[i], by Σ coeffs[i] (A_i W)."""
    out = np.zeros_like(W)
    for c, A in zip(coeffs, actions):
        if c:
            out += int(c) * (A @ W)
    return out % p


def intertwiner_ok(theta, M, N, rng, columns=16) -> bool:
    """θ invertible and θ ρ_M(g) ≡ ρ_N(g) θ for every generator g.

    Each identity is tested on a random block of vectors (Freivalds): a
    wrong generator survives with probability at most p^-columns.
    """
    p = M.alg.p
    theta = np.asarray(theta, dtype=np.int64) % p
    if M.gens != N.gens or theta.shape != (N.dim, M.dim) or M.dim != N.dim:
        return False
    if rank_mod(theta, p) != M.dim:
        return False
    V = rng.integers(0, p, size=(M.dim, columns))
    TV = (theta @ V) % p
    for i in range(len(M.gens)):
        A = M.action(i)
        B = N.action(i)
        if not np.array_equal((theta @ ((A @ V) % p)) % p, (B @ TV) % p):
            return False
    return True


def induced_module_ok(M, comp_indices, base_dim, structure, rng, trials=4,
                      columns=4) -> bool:
    """dim M = p^k dim(base), and the bracket and p-power relations hold on
    random elements of the generated subalgebra and random vectors."""
    p = M.alg.p
    if M.dim != p ** len(list(comp_indices)) * base_dim:
        return False
    gens = list(M.gens)
    acts = [M.action(i) for i in range(len(gens))]
    chi_dual = M.chi.dual.coeffs % p
    D = len(structure.basis)
    for _ in range(trials):
        a = np.zeros(D, dtype=np.int64)
        b = np.zeros(D, dtype=np.int64)
        a[gens] = rng.integers(0, p, size=len(gens))
        b[gens] = rng.integers(0, p, size=len(gens))
        x, y = structure.element(a), structure.element(b)
        c = structure.coords(structure.bracket(x, y))
        q = structure.coords(structure.p_map(x))
        if c is None or q is None:
            return False
        outside = np.ones(D, dtype=bool)
        outside[gens] = False
        if np.any(c[outside]) or np.any(q[outside]):
            return False
        V = rng.integers(0, p, size=(M.dim, columns))
        ag, bg, cg, qg = a[gens], b[gens], c[gens], q[gens]
        xyV = _act(acts, ag, _act(acts, bg, V, p), p)
        yxV = _act(acts, bg, _act(acts, ag, V, p), p)
        if not np.array_equal((xyV - yxV) % p, _act(acts, cg, V, p)):
            return False
        powV = V
        for _ in range(p):
            powV = _act(acts, ag, powV, p)
        lam = structure.char_value(chi_dual, x)   # χ(x)^p = χ(x) over F_p
        if not np.array_equal(powV, (_act(acts, qg, V, p) + lam * V) % p):
            return False
    return True


def factor_dims(series) -> Counter:
    """Multiset of composition factor dimensions of a CompositionSeries."""
    out = Counter()
    for sid, mult in series.factors:
        out[series.dims[sid]] += mult
    return out


def jordan_hoelder_ok(M, series, seed) -> bool:
    """Chopping M again with another seed gives the same factor dimensions."""
    chop = sys.modules["currentrep.meataxe"].chop
    return factor_dims(chop(M, seed=seed)) == factor_dims(series)


def kernel_ok(A, K, p) -> bool:
    """A Kᵀ ≡ 0 and the rows of K span the whole null space."""
    A = np.asarray(A, dtype=np.int64) % p
    K = np.asarray(K, dtype=np.int64) % p
    if K.shape[-1] != A.shape[1]:
        return False
    if K.shape[0] and np.any(mulmod(A, K.T, p)):
        return False
    return rank_mod(K, p) == K.shape[0] and K.shape[0] + rank_mod(A, p) == A.shape[1]


# -- the check round ------------------------------------------------------


class CheckRound:
    """Wrap the producing functions and check what they return.

    Witnesses of ``are_isomorphic`` (flag True) and ``verma_intertwiner`` and
    every module from ``build_induced`` are checked; ``chop`` results and
    ``kernel`` outputs are checked on a seeded sample.  A check never runs
    inside another one, so the functions it calls are not checked again.
    """

    RECHOP_LIMIT = 2
    KERNEL_LIMIT = 40
    KERNEL_RATE = 0.1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng((seed, 0xC4EC))
        self.seed = seed
        self.results = Counter()        # (check name, passed) -> count
        self.failures = []
        self._busy = False
        self._patches = Patches()
        self._structures = {}
        self._rechops = 0
        self._kernels = 0

    def record(self, name, ok, detail=""):
        self.results[(name, bool(ok))] += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def attempted(self):
        return sum(self.results.values())

    @property
    def failed(self):
        return sum(n for (_name, ok), n in self.results.items() if not ok)

    def structure(self, alg):
        if alg not in self._structures:
            from currentrep.algebra import get_context
            self._structures[alg] = Structure(get_context(alg))
        return self._structures[alg]

    # hooks: (args, kwargs, out)

    def _are_isomorphic(self, args, kwargs, out):
        flag, theta = out
        if flag and theta is not None:
            M, N = args[0], args[1]
            self.record("are_isomorphic witness", intertwiner_ok(theta, M, N, self.rng),
                        f"dim {M.dim}")

    def _verma_intertwiner(self, args, kwargs, out):
        if out is not None:
            Z, N = args[0], args[1]
            self.record("verma_intertwiner witness", intertwiner_ok(out, Z, N, self.rng),
                        f"dim {Z.dim}")

    def _build_induced(self, args, kwargs, out):
        comp = args[1] if len(args) > 1 else kwargs["comp_indices"]
        base = args[2] if len(args) > 2 else kwargs["base"]
        ok = induced_module_ok(out, comp, base.dim, self.structure(out.alg), self.rng)
        self.record("build_induced relations", ok, f"dim {out.dim}")

    def _chop(self, args, kwargs, out):
        if self._rechops >= self.RECHOP_LIMIT:
            return
        if self._rechops and self.rng.random() >= 0.25:
            return
        self._rechops += 1
        M = args[0]
        self.record("chop Jordan-Hoelder", jordan_hoelder_ok(M, out, self.seed + 1),
                    f"dim {M.dim}")

    def _kernel(self, args, kwargs, out):
        if self._kernels >= self.KERNEL_LIMIT or self.rng.random() >= self.KERNEL_RATE:
            return
        self._kernels += 1
        p = args[1] if len(args) > 1 else kwargs["p"]
        self.record("kernel annihilates", kernel_ok(args[0], out, p),
                    f"shape {np.shape(args[0])}")

    def _checked(self, check):
        """Wrapper factory: run the function, then check its output unless a
        check is already running."""
        def make(fn):
            def checked(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not self._busy:
                    self._busy = True
                    try:
                        check(args, kwargs, out)
                    finally:
                        self._busy = False
                return out
            return checked
        return make

    def install(self):
        for modname, attr, check in [
                ("currentrep.meataxe", "are_isomorphic", self._are_isomorphic),
                ("currentrep.meataxe", "verma_intertwiner", self._verma_intertwiner),
                ("currentrep.modrep", "build_induced", self._build_induced),
                ("currentrep.meataxe", "chop", self._chop),
                ("currentrep.linalg", "kernel", self._kernel)]:
            self._patches.function(modname, attr, self._checked(check))

    def uninstall(self):
        self._patches.undo()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
