"""Structure layer: g_m = g ⊗ F_p[t]/(t^{m+1}) for g = sl_n or gl_n.

Elements are n×n matrices over the truncated polynomial ring, stored as a
(m+1, n, n) coefficient stack.  The restricted structure is the literal p-th
matrix power over the ring.  A :class:`LieContext` fixes the ordered basis of
g_m (t-degree ascending; inside a degree: negative root vectors by root
height descending, then the toral basis, then positive root vectors by height
ascending), and caches structure constants, p-power expansions and the
invariant form needed everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import AlgebraMismatch, InternalError, InvalidDescriptor


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Parameters (kind, n, p, m) of a truncated current algebra."""

    kind: str
    n: int
    p: int
    m: int

    def __post_init__(self):
        if self.kind not in ("sl", "gl"):
            raise InvalidDescriptor(f"kind must be sl or gl, got {self.kind!r}")
        if not is_prime(self.p):
            raise InvalidDescriptor(f"{self.p} is not prime")
        if self.n < 2:
            raise InvalidDescriptor("need n >= 2")
        if self.n * (self.p - 1) ** 2 >= 2 ** 63:
            # the bound _stack_mult relies on: one n x n product of residues
            raise InvalidDescriptor(f"p = {self.p} is too large for n = {self.n}: "
                                    "element products would leave int64")
        if self.m < 0:
            raise InvalidDescriptor("need m >= 0")
        if self.kind == "sl" and self.n % self.p == 0:
            raise InvalidDescriptor("sl_n needs p not dividing n (trace form degenerate)")

    @property
    def rank(self) -> int:
        return self.n - 1 if self.kind == "sl" else self.n

    @property
    def num_pos_roots(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def dim_g(self) -> int:
        return 2 * self.num_pos_roots + self.rank

    @property
    def dim_gm(self) -> int:
        return (self.m + 1) * self.dim_g

    @property
    def dim_z(self) -> int:
        return 0 if self.kind == "sl" else 1

    def at_order(self, k: int) -> "AlgebraDescriptor":
        return AlgebraDescriptor(self.kind, self.n, self.p, k)

    def label(self) -> str:
        return f"({self.kind}_{self.n})_{self.m}, p={self.p}"


class CurrentElement:
    """Element of g_m: coefficient stack of shape (m+1, n, n) over F_p.

    The public constructor reduces its input and checks the shape and, for
    sl, the trace.  Results of arithmetic on valid elements are valid by
    construction and go through :meth:`_trusted`, which checks nothing.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: AlgebraDescriptor, coeffs):
        self.alg = alg
        arr = np.asarray(coeffs, dtype=np.int64) % alg.p
        if arr.shape != (alg.m + 1, alg.n, alg.n):
            raise ValueError(f"coefficient stack must have shape {(alg.m + 1, alg.n, alg.n)}")
        if alg.kind == "sl":
            tr = arr.trace(axis1=1, axis2=2) % alg.p
            if np.any(tr):
                raise ValueError("sl element must have traceless coefficient matrices")
        self.coeffs = arr

    @classmethod
    def _trusted(cls, alg: AlgebraDescriptor, coeffs: np.ndarray) -> "CurrentElement":
        """Element from an int64 stack of the right shape with entries in
        [0, p) (and traceless coefficients for sl), taken as it is."""
        out = object.__new__(cls)
        out.alg = alg
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, alg: AlgebraDescriptor) -> "CurrentElement":
        return cls(alg, np.zeros((alg.m + 1, alg.n, alg.n), dtype=np.int64))

    @classmethod
    def from_matrix(cls, alg: AlgebraDescriptor, mat, degree: int = 0) -> "CurrentElement":
        """Promote a degree-0 matrix of g into g_m at t^degree."""
        coeffs = np.zeros((alg.m + 1, alg.n, alg.n), dtype=np.int64)
        if degree <= alg.m:
            coeffs[degree] = np.asarray(mat, dtype=np.int64) % alg.p
        return cls(alg, coeffs)

    def _check(self, other: "CurrentElement"):
        if self.alg != other.alg:
            raise AlgebraMismatch("descriptor mismatch")

    def __add__(self, other):
        self._check(other)
        return CurrentElement._trusted(self.alg, (self.coeffs + other.coeffs) % self.alg.p)

    def __sub__(self, other):
        self._check(other)
        return CurrentElement._trusted(self.alg, (self.coeffs - other.coeffs) % self.alg.p)

    def __neg__(self):
        return CurrentElement._trusted(self.alg, -self.coeffs % self.alg.p)

    def scale(self, c: int) -> "CurrentElement":
        return CurrentElement._trusted(self.alg, self.coeffs * (c % self.alg.p) % self.alg.p)

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, CurrentElement) and self.alg == other.alg and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.alg, self.coeffs.tobytes()))

    def graded_piece(self, d: int) -> np.ndarray:
        """Coefficient matrix of t^d."""
        return self.coeffs[d]

    def support_degrees(self):
        return [d for d in range(self.alg.m + 1) if np.any(self.coeffs[d])]

    def mat_mult(self, other: "CurrentElement") -> np.ndarray:
        """Associative product over R_m (raw coefficient stack, may leave sl)."""
        self._check(other)
        return _stack_mult(self.coeffs, other.coeffs, self.alg.p, self.alg.m)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.alg.kind,
            "n": self.alg.n,
            "p": self.alg.p,
            "m": self.alg.m,
            "coeff_mats": [self.coeffs[d].ravel().tolist() for d in range(self.alg.m + 1)],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CurrentElement":
        alg = AlgebraDescriptor(d["kind"], d["n"], d["p"], d["m"])
        stacks = [np.asarray(mat, dtype=np.int64).reshape(alg.n, alg.n) for mat in d["coeff_mats"]]
        return cls(alg, np.stack(stacks))

    def __repr__(self):
        return f"CurrentElement({self.alg.label()}, support={self.support_degrees()})"


def bracket(x: CurrentElement, y: CurrentElement) -> CurrentElement:
    """Lie bracket [x, y] = xy - yx over R_m (traceless, so valid for sl)."""
    return CurrentElement._trusted(x.alg, (x.mat_mult(y) - y.mat_mult(x)) % x.alg.p)


@lru_cache(maxsize=None)
def _degree_pairs(m: int) -> np.ndarray:
    """S[k, i, j] = 1 when i + j = k <= m: which degree pairs feed t^k."""
    S = np.zeros((m + 1, m + 1, m + 1), dtype=np.int64)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            S[i + j, i, j] = 1
    return S


def _stack_mult(a: np.ndarray, b: np.ndarray, p: int, m: int) -> np.ndarray:
    """Product of coefficient stacks over R_m = F_p[t]/(t^{m+1}).

    Each degree pair a_i b_j is reduced mod p before the pairs of one degree
    are summed, so int64 holds every entry while n (p-1)^2 does.
    """
    prod = np.matmul(a[:, None], b[None, :]) % p
    return np.einsum("kij,ijac->kac", _degree_pairs(m), prod) % p


def p_map(x: CurrentElement) -> CurrentElement:
    """Restricted p-operation: the p-th matrix power over R_m.

    The graded rule (y t^i)^{[p]} = y^{[p]} t^{pi} is a consequence, checked
    in the test suite rather than assumed.  In characteristic p the trace of
    x^p is (tr x)^p, so the power of an sl element stays in sl.
    """
    alg = x.alg
    out = x.coeffs
    for _ in range(alg.p - 1):
        out = _stack_mult(out, x.coeffs, alg.p, alg.m)
    return CurrentElement._trusted(alg, out)


def kappa_m(x: CurrentElement, y: CurrentElement) -> int:
    """t^m-coefficient of Tr(xy) over R_m."""
    x._check(y)
    alg = x.alg
    if alg.kind == "sl" and alg.n % alg.p == 0:
        raise InvalidDescriptor("form degenerate for sl_n with p | n")
    total = 0
    for i in range(alg.m + 1):
        j = alg.m - i
        total += int(np.einsum("ij,ji->", x.coeffs[i], y.coeffs[j]))
    return total % alg.p


# ---------------------------------------------------------------------------
# Root datum and the ordered basis of g_m


@dataclass(frozen=True)
class BasisMeta:
    """Bookkeeping for one basis element b = v t^degree of g_m."""

    index: int
    part: str          # 'f', 'h' or 'e'
    degree: int        # power of t
    pos: tuple         # (i, j) matrix-unit position for f/e, (l,) for h
    height: int        # root height, 0 for toral elements
    label: str


class RootDatum:
    """Triangular data for sl_n / gl_n with the standard torus.

    Weights of X*(T) are integer n-tuples; for sl they are taken modulo the
    all-ones vector, normalised to last coordinate zero.
    """

    def __init__(self, alg: AlgebraDescriptor):
        self.alg = alg
        n = alg.n
        self.pos_roots = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                                key=lambda ij: (ij[1] - ij[0], ij))
        self.simple = [(i, i + 1) for i in range(n - 1)]

    def height(self, ij) -> int:
        return ij[1] - ij[0]

    def root_tuple(self, ij) -> tuple:
        """The root ε_i - ε_j as a canonical X*(T) tuple."""
        n = self.alg.n
        v = [0] * n
        v[ij[0]] += 1
        v[ij[1]] -= 1
        return self.canonical_weight(tuple(v))

    def canonical_weight(self, gamma) -> tuple:
        gamma = tuple(int(c) for c in gamma)
        if self.alg.kind == "sl":
            last = gamma[-1]
            gamma = tuple(c - last for c in gamma)
        return gamma

    def weight_add(self, a, b, sign: int = 1) -> tuple:
        return self.canonical_weight(tuple(x + sign * y for x, y in zip(a, b)))

    def d_map(self, gamma) -> tuple:
        """Reduction X*(T) -> h*: values on the toral basis mod p."""
        p = self.alg.p
        if self.alg.kind == "gl":
            return tuple(c % p for c in gamma)
        return tuple((gamma[l] - gamma[l + 1]) % p for l in range(self.alg.n - 1))

    def toral_matrix(self, l: int) -> np.ndarray:
        n, p = self.alg.n, self.alg.p
        h = np.zeros((n, n), dtype=np.int64)
        if self.alg.kind == "gl":
            h[l, l] = 1
        else:
            h[l, l] = 1
            h[l + 1, l + 1] = p - 1
        return h

    def degree_zero_order(self):
        """(part, pos) pairs in the fixed order: f desc height, h, e asc height."""
        out = []
        for ij in sorted(self.pos_roots, key=lambda ij: (-self.height(ij), ij)):
            out.append(("f", ij))
        for l in range(self.alg.rank):
            out.append(("h", (l,)))
        for ij in self.pos_roots:
            out.append(("e", ij))
        return out


class LieContext:
    """Ordered basis of g_m with cached structure data.

    Everything downstream (adjoint matrices, PBW straightening, module
    builders) works in the coordinates fixed here.
    """

    def __init__(self, alg: AlgebraDescriptor):
        self.alg = alg
        self.roots = RootDatum(alg)
        self.meta: list[BasisMeta] = []
        mats = []
        idx = 0
        for d in range(alg.m + 1):
            for part, pos in self.roots.degree_zero_order():
                if part == "h":
                    mat = self.roots.toral_matrix(pos[0])
                    height = 0
                    label = f"h{pos[0] + 1}" + (f"*t^{d}" if d else "")
                else:
                    i, j = pos if part == "e" else (pos[1], pos[0])
                    mat = np.zeros((alg.n, alg.n), dtype=np.int64)
                    mat[i, j] = 1
                    height = self.roots.height(pos)
                    label = f"{part}[{pos[0] + 1}{pos[1] + 1}]" + (f"*t^{d}" if d else "")
                self.meta.append(BasisMeta(idx, part, d, pos, height, label))
                mats.append(CurrentElement.from_matrix(alg, mat, d))
                idx += 1
        self.basis = mats
        self.dim = len(mats)

    # -- coordinates ------------------------------------------------------

    def coords(self, x: CurrentElement) -> np.ndarray:
        if x.alg != self.alg:
            raise AlgebraMismatch("descriptor mismatch")
        p, n = self.alg.p, self.alg.n
        out = np.zeros(self.dim, dtype=np.int64)
        per_deg = self.alg.dim_g
        for d in range(self.alg.m + 1):
            A = x.coeffs[d]
            base = d * per_deg
            for k, meta in enumerate(self.meta[base:base + per_deg]):
                if meta.part == "h":
                    l = meta.pos[0]
                    if self.alg.kind == "gl":
                        out[base + k] = A[l, l]
                    else:
                        out[base + k] = sum(int(A[t, t]) for t in range(l + 1)) % p
                else:
                    i, j = meta.pos if meta.part == "e" else (meta.pos[1], meta.pos[0])
                    out[base + k] = A[i, j]
        return out

    def from_coords(self, v) -> CurrentElement:
        v = np.asarray(v, dtype=np.int64) % self.alg.p
        coeffs = np.zeros((self.alg.m + 1, self.alg.n, self.alg.n), dtype=np.int64)
        for k, c in enumerate(v):
            if c:
                coeffs += c * self.basis[k].coeffs
        return CurrentElement._trusted(self.alg, coeffs % self.alg.p)

    # -- cached structure data ---------------------------------------------

    @cached_property
    def bracket_coords(self) -> np.ndarray:
        """Dense table c[i, j, :] = coordinates of [b_i, b_j]."""
        D = self.dim
        table = np.zeros((D, D, D), dtype=np.int64)
        for i in range(D):
            for j in range(i + 1, D):
                c = self.coords(bracket(self.basis[i], self.basis[j]))
                table[i, j] = c
                table[j, i] = (-c) % self.alg.p
        return table

    @cached_property
    def pmap_coords(self) -> np.ndarray:
        """Row i = coordinates of b_i^{[p]}."""
        return np.stack([self.coords(p_map(b)) for b in self.basis])

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        D = self.dim
        g = np.zeros((D, D), dtype=np.int64)
        for i in range(D):
            for j in range(D):
                g[i, j] = kappa_m(self.basis[i], self.basis[j])
        return g

    def ad_matrix(self, x: CurrentElement) -> np.ndarray:
        """Matrix of ad(x) in the basis coordinates (columns = images)."""
        xc = self.coords(x)
        # ad(x) column j = sum_i xc[i] * bracket_coords[i, j]
        return linalg.asmod(np.tensordot(xc, self.bracket_coords, axes=(0, 0)).T, self.alg.p)

    def weight_of(self, k: int) -> tuple:
        """h*-weight of basis element k under ad(h): tuple over the toral basis."""
        meta = self.meta[k]
        p = self.alg.p
        if meta.part == "h":
            return tuple(0 for _ in range(self.alg.rank))
        gamma = self.roots.root_tuple(meta.pos)
        w = self.roots.d_map(gamma)
        if meta.part == "f":
            w = tuple((-c) % p for c in w)
        return w

    def grading_of(self, k: int) -> tuple:
        """X*(T)-grading of basis element k (zero for toral)."""
        meta = self.meta[k]
        zero = self.roots.canonical_weight((0,) * self.alg.n)
        if meta.part == "h":
            return zero
        g = self.roots.root_tuple(meta.pos)
        if meta.part == "f":
            g = self.roots.canonical_weight(tuple(-c for c in g))
        return g

    def part_indices(self, parts, degrees=None):
        degrees = set(degrees) if degrees is not None else None
        return [m.index for m in self.meta
                if m.part in parts and (degrees is None or m.degree in degrees)]

    @cached_property
    def torus_indices(self):
        return self.part_indices("h")

    @cached_property
    def nplus_indices(self):
        return self.part_indices("e")

    @cached_property
    def nminus_indices(self):
        return self.part_indices("f")


_CONTEXT_CACHE: dict = {}


def get_context(alg: AlgebraDescriptor) -> LieContext:
    ctx = _CONTEXT_CACHE.get(alg)
    if ctx is None:
        ctx = _CONTEXT_CACHE[alg] = LieContext(alg)
    return ctx


# ---------------------------------------------------------------------------
# F_p[x] helpers (for minimal polynomials and Jordan decomposition)


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def poly_divmod(a, b, p):
    a = list(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(_poly_trim(a)) >= len(b):
        a = _poly_trim(a)
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead % p
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % p
    return _poly_trim(q), _poly_trim(a)


def poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        _, r = poly_divmod(a, b, p)
        a, b = b, r
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [c * inv_lead % p for c in a]
    return a


def poly_deriv(a, p):
    return _poly_trim([(i * c) % p for i, c in enumerate(a)][1:])


def squarefree_part(a, p):
    """Radical of a polynomial over F_p (product of distinct irreducible
    factors).  Handles vanishing derivatives: a(x) = b(x^p) equals b(x)^p
    coefficientwise over the prime field."""
    a = _poly_trim(a)
    if len(a) <= 2:
        return a
    d = poly_deriv(a, p)
    if not d:
        b = [a[i] for i in range(0, len(a), p)]
        return squarefree_part(b, p)
    g = poly_gcd(a, d, p)
    if len(g) <= 1:
        return a
    q, rem = poly_divmod(a, g, p)
    if rem:
        raise InternalError("gcd with the derivative does not divide the polynomial")
    r = squarefree_part(g, p)
    gcd_qr = poly_gcd(q, r, p)
    lcm, rem2 = poly_divmod(poly_mul(q, r, p), gcd_qr, p)
    if rem2:
        raise InternalError("gcd does not divide the product")
    return lcm


# ---------------------------------------------------------------------------
# Classification and Jordan decomposition


def flatten_regular(x: CurrentElement) -> np.ndarray:
    """Matrix of x acting on R_m^n = F_p^{n(m+1)}, basis e_i t^d (d major)."""
    alg = x.alg
    n, m, p = alg.n, alg.m, alg.p
    N = n * (m + 1)
    X = np.zeros((N, N), dtype=np.int64)
    for d_in in range(m + 1):
        for d_shift in range(m + 1 - d_in):
            blk = x.coeffs[d_shift]
            X[(d_in + d_shift) * n:(d_in + d_shift + 1) * n, d_in * n:(d_in + 1) * n] = blk
    return X % p


def nilpotency_bound(alg: AlgebraDescriptor) -> int:
    size = alg.n * (alg.m + 1)
    return max(1, math.ceil(math.log(size, alg.p))) + 1


def is_nilpotent(x: CurrentElement) -> bool:
    y = x
    for _ in range(nilpotency_bound(x.alg)):
        y = p_map(y)
        if y.is_zero():
            return True
    return False


def _p_power_iterates(x: CurrentElement, cap: int = 256):
    """Distinct iterates x^{[p]}, x^{[p]^2}, ... up to the first repetition."""
    seen = {}
    out = []
    y = p_map(x)
    for _ in range(cap):
        key = y.coeffs.tobytes()
        if key in seen:
            return out
        seen[key] = True
        out.append(y)
        y = p_map(y)
    raise RuntimeError("p-power iteration failed to cycle; cap too small")


def classify_element(x: CurrentElement) -> str:
    """'nilpotent', 'semisimple' or 'mixed'.

    Nilpotency by bounded p-power iteration; semisimplicity by membership of
    x in the span of its iterated p-powers (the iterates are finite in
    number, detected by cycling).
    """
    if is_nilpotent(x):
        return "nilpotent"
    ctx = get_context(x.alg)
    iters = _p_power_iterates(x)
    span = np.stack([ctx.coords(y) for y in iters])
    aug = np.vstack([span, ctx.coords(x)])
    if linalg.rank(aug, x.alg.p) == linalg.rank(span, x.alg.p):
        return "semisimple"
    return "mixed"


def minimal_polynomial(X: np.ndarray, p: int) -> list:
    """Minimal polynomial of a square F_p matrix, ascending coefficients."""
    N = X.shape[0]
    ech = linalg.Echelon(N * N, p)
    powers = [np.eye(N, dtype=np.int64)]
    ech.add_rows(powers[0].ravel())
    while True:
        nxt = linalg.matmul(powers[-1], X, p)
        if ech.contains(nxt.ravel()):
            break
        ech.add_rows(nxt.ravel())
        powers.append(nxt)
    stack = np.stack([q.ravel() for q in powers])
    sol = linalg.solve(stack.T, nxt.ravel(), p)
    # X^k = sum sol[i] X^i  ->  minpoly = x^k - sum sol[i] x^i
    poly = [(-int(c)) % p for c in sol] + [1]
    return _poly_trim(poly)


def invert_over_ring(a_coeffs: np.ndarray, p: int, m: int) -> np.ndarray:
    """Inverse of a matrix over R_m (stack form); constant term must be a unit."""
    n = a_coeffs.shape[1]
    b0 = linalg.inv(a_coeffs[0], p)
    # A = A0 (I + A0^{-1} T) with T the positive-degree part
    tail = np.zeros_like(a_coeffs)
    for d in range(1, m + 1):
        tail[d] = b0 @ a_coeffs[d] % p
    acc = np.zeros_like(a_coeffs)
    acc[0] = np.eye(n, dtype=np.int64)
    term = acc.copy()
    for _ in range(m):
        term = _stack_mult((-term) % p, tail, p, m)
        acc = (acc + term) % p
    out = np.zeros_like(a_coeffs)
    for d in range(m + 1):
        out[d] = acc[d] @ b0 % p
    return out


def _eval_poly_stack(poly, a: np.ndarray, p: int, m: int) -> np.ndarray:
    """Evaluate an F_p[x]-polynomial at a coefficient stack via Horner."""
    out = np.zeros_like(a)
    eye = np.eye(a.shape[1], dtype=np.int64)
    for c in reversed(poly):
        out = _stack_mult(out, a, p, m)
        out[0] = (out[0] + c * eye) % p
    return out


def jordan_decompose(x: CurrentElement):
    """Unique decomposition x = s + n, s semisimple, n nilpotent, [s, n] = 0.

    Newton iteration against the squarefree part of the minimal polynomial of
    the flattened F_p-matrix of x; all steps stay inside F_p[x].  The
    intermediate iterates may have nonzero trace, so the iteration runs on
    raw coefficient stacks; the converged part lands back in the algebra.
    """
    alg = x.alg
    p = alg.p
    X = flatten_regular(x)
    mp = minimal_polynomial(X, p)
    g = squarefree_part(mp, p)
    gd = poly_deriv(g, p)
    s = x.coeffs
    max_iter = nilpotency_bound(alg) + int(np.ceil(np.log2(alg.n * (alg.m + 1) + 1))) + 2
    for _ in range(max_iter):
        val = _eval_poly_stack(g, s, p, alg.m)
        if not np.any(val):
            break
        dinv = invert_over_ring(_eval_poly_stack(gd, s, p, alg.m), p, alg.m)
        corr = _stack_mult(val, dinv, p, alg.m)
        s = (s - corr) % p
    else:
        raise InternalError("Jordan-Chevalley Newton iteration did not converge")
    s = CurrentElement(alg, s)
    n = x - s
    return s, n


def centralizer_basis(x: CurrentElement):
    """Basis of the adjoint centraliser g_m^x."""
    ctx = get_context(x.alg)
    ker = linalg.kernel(ctx.ad_matrix(x), x.alg.p)
    return [ctx.from_coords(row) for row in ker]


def centralizer_dim(x: CurrentElement) -> int:
    ctx = get_context(x.alg)
    return ctx.dim - linalg.rank(ctx.ad_matrix(x), x.alg.p)


def is_regular(x: CurrentElement) -> bool:
    """True iff the centraliser has the minimal dimension (m+1) * rank."""
    return centralizer_dim(x) == (x.alg.m + 1) * x.alg.rank


def random_element(alg: AlgebraDescriptor, rng) -> CurrentElement:
    ctx = get_context(alg)
    v = rng.integers(0, alg.p, size=ctx.dim)
    return ctx.from_coords(v)
