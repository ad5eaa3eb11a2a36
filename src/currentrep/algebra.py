"""Structure layer: g_m = g ⊗ F_p[t]/(t^{m+1}) for g = sl_n or gl_n.

Elements are n×n matrices over the truncated polynomial ring
R_m = F_p[t]/(t^{m+1}), stored as a (m+1, n, n) coefficient stack: entry
[d, i, j] is the t^d-coefficient of entry (i, j).  This module owns that
choice.  Every product over R_m, or over any ring with a monomial basis
such as the dual numbers R_m[ε]/(ε²), is the one ``_ring_mult`` over the
ring's structure tensor (``_degree_pairs``, ``_dual_pairs``).

The restricted structure is the literal p-th matrix power over the ring.  A
:class:`LieContext` fixes the ordered basis of g_m (t-degree ascending;
inside a degree: negative root vectors by root height descending, then the
toral basis, then positive root vectors by height ascending), and caches
structure constants, p-power expansions and the invariant form needed
everywhere else.

Each quantity has one formula, on coefficient arrays of shape
(..., m+1, n, n) with any leading batch axes: ``bracket_coeffs``,
``p_map_coeffs``, ``is_nilpotent_coeffs``, ``kappa_coeffs`` and
``centralizer_dim_coeffs``.  The element functions (``bracket``, ``p_map``,
``is_nilpotent``, ``kappa_m``, ``centralizer_dim``) call them on one
element, and a sampled check calls them once on the stack of all its
samples.  ``LieContext.coords``, ``from_coords`` and ``ad_matrix`` take
stacks as well.

The semisimple part of an element lies in the p-closure of the element, so
one p-power orbit x, x^{[p]}, x^{[p]^2}, ... gives both its Jordan
decomposition and its class (``jordan_decompose``, ``classify_element``).
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
            # the bound _ring_mult relies on: one n x n product of residues
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


def bracket_coeffs(a: np.ndarray, b: np.ndarray, alg: AlgebraDescriptor) -> np.ndarray:
    """Lie bracket ab - ba over R_m of coefficient arrays (..., m+1, n, n)."""
    return (_stack_mult(a, b, alg.p, alg.m) - _stack_mult(b, a, alg.p, alg.m)) % alg.p


def bracket(x: CurrentElement, y: CurrentElement) -> CurrentElement:
    """Lie bracket [x, y] = xy - yx over R_m (traceless, so valid for sl)."""
    x._check(y)
    return CurrentElement._trusted(x.alg, bracket_coeffs(x.coeffs, y.coeffs, x.alg))


@lru_cache(maxsize=None)
def _degree_pairs(m: int) -> np.ndarray:
    """S[k, i, j] = 1 when i + j = k <= m: which degree pairs feed t^k."""
    S = np.zeros((m + 1, m + 1, m + 1), dtype=np.int64)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            S[i + j, i, j] = 1
    return S


@lru_cache(maxsize=None)
def _dual_pairs(m: int) -> np.ndarray:
    """Structure tensor of R_m[ε]/(ε²) on its monomials t^0..t^m, then
    ε t^0..ε t^m: t^i t^j, ε t^i · t^j and t^i · ε t^j (ε² = 0)."""
    S, K = _degree_pairs(m), m + 1
    D = np.zeros((2 * K, 2 * K, 2 * K), dtype=np.int64)
    D[:K, :K, :K] = S
    D[K:, K:, :K] = S
    D[K:, :K, K:] = S
    return D


def _ring_mult(a: np.ndarray, b: np.ndarray, pairs: np.ndarray, p: int) -> np.ndarray:
    """Product of matrices over the monomial ring whose structure tensor is
    ``pairs`` (pairs[k, i, j] = 1 when monomial i times monomial j is
    monomial k), as coefficient arrays (..., K, r, s) and (..., K, s, c) with
    leading batch axes broadcast against each other.

    Each monomial pair a_i b_j is reduced mod p before the pairs of one
    monomial are summed, so int64 holds every entry while s (p-1)^2 does.
    """
    prod = np.matmul(a[..., :, None, :, :], b[..., None, :, :, :]) % p
    return np.einsum("kij,...ijac->...kac", pairs, prod) % p


def _stack_mult(a: np.ndarray, b: np.ndarray, p: int, m: int) -> np.ndarray:
    """Product of coefficient stacks over R_m = F_p[t]/(t^{m+1})."""
    return _ring_mult(a, b, _degree_pairs(m), p)


def p_map_coeffs(a: np.ndarray, alg: AlgebraDescriptor) -> np.ndarray:
    """The p-th power over R_m of coefficient arrays (..., m+1, n, n), by
    binary powering: never more products than p - 1, and about 2 log2(p)."""
    out, e = None, alg.p
    while True:
        if e & 1:
            out = a if out is None else _stack_mult(out, a, alg.p, alg.m)
        e >>= 1
        if not e:
            return out
        a = _stack_mult(a, a, alg.p, alg.m)


def p_map(x: CurrentElement) -> CurrentElement:
    """Restricted p-operation: the p-th matrix power over R_m.

    The graded rule (y t^i)^{[p]} = y^{[p]} t^{pi} is a consequence, checked
    in the test suite rather than assumed.  In characteristic p the trace of
    x^p is (tr x)^p, so the power of an sl element stays in sl.
    """
    return CurrentElement._trusted(x.alg, p_map_coeffs(x.coeffs, x.alg))


def kappa_coeffs(a: np.ndarray, b: np.ndarray, alg: AlgebraDescriptor) -> np.ndarray:
    """t^m-coefficient of Tr(ab) over R_m for coefficient arrays
    (..., m+1, n, n), one value per leading index.  Each product a_i b_{m-i}
    is reduced before its trace is taken, so int64 holds every sum while
    n (p-1)^2 does."""
    prod = np.matmul(a, b[..., ::-1, :, :]) % alg.p
    return np.trace(prod, axis1=-2, axis2=-1).sum(axis=-1) % alg.p


def kappa_m(x: CurrentElement, y: CurrentElement) -> int:
    """t^m-coefficient of Tr(xy) over R_m."""
    x._check(y)
    alg = x.alg
    if alg.kind == "sl" and alg.n % alg.p == 0:
        raise InvalidDescriptor("form degenerate for sl_n with p | n")
    return int(kappa_coeffs(x.coeffs, y.coeffs, alg))


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
        n, shape = alg.n, (alg.m + 1, alg.n, alg.n)
        mats = []
        # column k of the selection matrix picks the coefficients whose sum
        # is coordinate k: one entry, or for the sl toral h_l the diagonal
        # entries 0..l (since h_l = E_ll - E_{l+1,l+1})
        select = []
        idx = 0
        for d in range(alg.m + 1):
            for part, pos in self.roots.degree_zero_order():
                sel = np.zeros(shape, dtype=np.int64)
                if part == "h":
                    mat = self.roots.toral_matrix(pos[0])
                    height = 0
                    label = f"h{pos[0] + 1}" + (f"*t^{d}" if d else "")
                    diag = [pos[0]] if alg.kind == "gl" else range(pos[0] + 1)
                    sel[d, diag, diag] = 1
                else:
                    i, j = pos if part == "e" else (pos[1], pos[0])
                    mat = np.zeros((n, n), dtype=np.int64)
                    mat[i, j] = 1
                    sel[d, i, j] = 1
                    height = self.roots.height(pos)
                    label = f"{part}[{pos[0] + 1}{pos[1] + 1}]" + (f"*t^{d}" if d else "")
                self.meta.append(BasisMeta(idx, part, d, pos, height, label))
                coeffs = np.zeros(shape, dtype=np.int64)
                coeffs[d] = mat % alg.p
                mats.append(coeffs)
                select.append(sel.ravel())
                idx += 1
        self.basis_coeffs = np.stack(mats)
        self.basis_coeffs.flags.writeable = False
        self.basis = [CurrentElement._trusted(alg, c) for c in self.basis_coeffs]
        self.dim = len(mats)
        self._select = np.stack(select, axis=1)
        self._generating: dict = {}  # gens -> generating_slots(gens)

    # -- coordinates ------------------------------------------------------

    def coords(self, x) -> np.ndarray:
        """Coordinates of an element, or of a coefficient array
        (..., m+1, n, n) with entries in [0, p): shape (..., dim)."""
        if isinstance(x, CurrentElement):
            if x.alg != self.alg:
                raise AlgebraMismatch("descriptor mismatch")
            x = x.coeffs
        flat = x.reshape(*x.shape[:-3], self._select.shape[0])
        return flat @ self._select % self.alg.p

    def from_coords(self, v):
        """The element with coordinates v; for a stack of coordinate rows
        (..., dim), their coefficient arrays (..., m+1, n, n)."""
        v = np.asarray(v, dtype=np.int64) % self.alg.p
        coeffs = np.tensordot(v, self.basis_coeffs, axes=1) % self.alg.p
        return CurrentElement._trusted(self.alg, coeffs) if v.ndim == 1 else coeffs

    # -- cached structure data ---------------------------------------------

    @cached_property
    def bracket_coords(self) -> np.ndarray:
        """Dense table c[i, j, :] = coordinates of [b_i, b_j]."""
        B = self.basis_coeffs
        return self.coords(bracket_coeffs(B[:, None], B[None, :], self.alg))

    @cached_property
    def pmap_coords(self) -> np.ndarray:
        """Row i = coordinates of b_i^{[p]}."""
        return self.coords(p_map_coeffs(self.basis_coeffs, self.alg))

    def restricted_closure(self, idx) -> linalg.Echelon:
        """Coordinate rows spanning the restricted subalgebra generated by
        the basis elements ``idx``: their span closed under the bracket and
        the p-map.

        Each round brackets the rows new in the last round with every row
        found so far and adds their p-th powers.  Since
        (a x + b y)^{[p]} = a^p x^{[p]} + b^p y^{[p]} plus brackets of x and y
        (Jacobson's formula), the p-th powers of a spanning set suffice.
        """
        D, p = self.dim, self.alg.p
        ech = linalg.Echelon(D, p)
        found = np.zeros((0, D), dtype=np.int64)
        new = ech.add_rows(np.eye(D, dtype=np.int64)[list(idx)])
        while new.shape[0] and ech.dim < D:
            found = np.vstack([found, new])
            pairs = (found[:, None, :, None] * new[None, :, None, :]).reshape(-1, D * D)
            brackets = linalg.matmul(pairs, self.bracket_coords.reshape(D * D, D), p)
            powers = self.coords(p_map_coeffs(self.from_coords(new), self.alg))
            new = ech.add_rows(np.vstack([brackets, powers]))
        return ech

    def generating_slots(self, gens) -> tuple:
        """Positions in ``gens`` of basis elements whose restricted closure
        is span(gens), or every position when that span is not closed under
        the bracket and the p-map; computed once per ``gens``.

        ``gens`` is scanned in order and each element outside the closure
        of those kept so far is kept; then one pass drops every kept element
        that the others still generate.
        """
        gens = tuple(gens)
        hit = self._generating.get(gens)
        if hit is not None:
            return hit
        unit = np.eye(self.dim, dtype=np.int64)
        kept = list(range(len(gens)))
        if gens and self.restricted_closure(gens).dim == len(gens):
            kept, span = [], None
            for s, g in enumerate(gens):
                if span is None or not span.contains(unit[g]):
                    kept.append(s)
                    span = self.restricted_closure([gens[t] for t in kept])
            for s in list(kept):
                rest = [gens[t] for t in kept if t != s]
                if rest and self.restricted_closure(rest).contains(unit[gens[s]]):
                    kept.remove(s)
            if self.restricted_closure([gens[t] for t in kept]).dim != len(gens):
                raise InternalError("generating set falls short of the span of gens")
        hit = self._generating[gens] = tuple(kept)
        return hit

    @cached_property
    def centre(self) -> np.ndarray:
        """Basis of the centre of g_m, one coordinate row per element: the
        x with [x, b_j] = 0 for every basis element b_j."""
        return linalg.kernel(self.bracket_coords.reshape(self.dim, -1).T, self.alg.p)

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        B = self.basis_coeffs
        return kappa_coeffs(B[:, None], B[None, :], self.alg)

    def ad_matrix(self, x) -> np.ndarray:
        """Matrix of ad(x) in the basis coordinates (columns = images), for
        an element or for each of a coefficient array (..., m+1, n, n)."""
        xc = self.coords(x)
        D = self.dim
        # ad(x) column j = sum_i xc[i] * bracket_coords[i, j]
        cols = linalg.matmul(xc.reshape(-1, D), self.bracket_coords.reshape(D, D * D), self.alg.p)
        return cols.reshape(*xc.shape[:-1], D, D).swapaxes(-1, -2)

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
# Classification and Jordan decomposition


def nilpotency_bound(alg: AlgebraDescriptor) -> int:
    size = alg.n * (alg.m + 1)
    return max(1, math.ceil(math.log(size, alg.p))) + 1


def is_nilpotent_coeffs(a: np.ndarray, alg: AlgebraDescriptor) -> np.ndarray:
    """Whether each coefficient array of (..., m+1, n, n) is nilpotent: some
    p-power iterate within ``nilpotency_bound`` is zero (and zero stays zero)."""
    zero = np.zeros(a.shape[:-3], dtype=bool)
    for _ in range(nilpotency_bound(alg)):
        a = p_map_coeffs(a, alg)
        zero = ~a.any(axis=(-3, -2, -1))
        if zero.all():
            break
    return zero


def is_nilpotent(x: CurrentElement) -> bool:
    return bool(is_nilpotent_coeffs(x.coeffs, x.alg))


def _p_power_orbit(x: CurrentElement, cap: int = 256):
    """(orbit, start): the iterates x, x^{[p]}, x^{[p]^2}, ... up to the
    first repeat, and the index in ``orbit`` where their cycle starts."""
    orbit = {}
    for _ in range(cap):
        key = x.coeffs.tobytes()
        if key in orbit:
            return list(orbit.values()), list(orbit).index(key)
        orbit[key] = x
        x = p_map(x)
    raise InternalError(f"p-power iterates did not repeat within {cap} steps")


def jordan_decompose(x: CurrentElement):
    """Unique decomposition x = s + n, s semisimple, n nilpotent, [s, n] = 0,
    read off the p-power orbit of x.

    As an operator on R_m^n = F_p^{n(m+1)}, x = S + N with S semisimple, N
    nilpotent and SN = NS, so x^{p^k} = S^{p^k} + N^{p^k}, and N^{p^k} = 0
    once p^k >= n(m+1).  The operator is block-triangular with x_0 on the
    diagonal, so the eigenvalues of S are those of x_0, each of some degree
    d <= n over F_p, and S^{p^L} = S whenever every such d divides L.  The
    sequence S^{p^k} is therefore purely periodic, and from its first
    repeat on the orbit is that cycle: orbit[i] = S^{p^i} for every i past
    the cycle start, and orbit[i] = S when the cycle length divides i.  So s
    is the orbit member at the least multiple of the cycle length that is
    not before the start (x itself when x lies on its own cycle).  Being a
    p-th power of x, s lies in the algebra.
    """
    orbit, start = _p_power_orbit(x)
    length = len(orbit) - start
    s = orbit[-(-start // length) * length]
    return s, x - s


def classify_element(x: CurrentElement) -> str:
    """'nilpotent' (x_s = 0), 'semisimple' (x_s = x) or 'mixed'."""
    s, _ = jordan_decompose(x)
    return "nilpotent" if s.is_zero() else "semisimple" if s == x else "mixed"


def invert_over_ring(a_coeffs: np.ndarray, p: int, m: int) -> np.ndarray:
    """Inverse of a matrix over R_m (stack form); constant term must be a unit."""
    b0 = np.zeros_like(a_coeffs)
    b0[0] = linalg.inv(a_coeffs[0], p)
    # A = A0 (I + N) with N = A0^{-1} A - I nilpotent, so A^{-1} = Σ (-N)^k A0^{-1}
    tail = _stack_mult(b0, a_coeffs, p, m)
    tail[0] = 0
    acc = np.zeros_like(a_coeffs)
    acc[0] = np.eye(a_coeffs.shape[1], dtype=np.int64)
    term = acc.copy()
    for _ in range(m):
        term = _stack_mult((-term) % p, tail, p, m)
        acc = (acc + term) % p
    return _stack_mult(acc, b0, p, m)


def centralizer_basis(x: CurrentElement):
    """Basis of the adjoint centraliser g_m^x."""
    ctx = get_context(x.alg)
    ker = linalg.kernel(ctx.ad_matrix(x), x.alg.p)
    return [ctx.from_coords(row) for row in ker]


def centralizer_dim_coeffs(a: np.ndarray, alg: AlgebraDescriptor):
    """dim g_m^x for each coefficient array x of (..., m+1, n, n)."""
    ctx = get_context(alg)
    return ctx.dim - linalg.rank(ctx.ad_matrix(a), alg.p)


def centralizer_dim(x: CurrentElement) -> int:
    return centralizer_dim_coeffs(x.coeffs, x.alg)


def is_regular(x: CurrentElement) -> bool:
    """True iff the centraliser has the minimal dimension (m+1) * rank."""
    return centralizer_dim(x) == (x.alg.m + 1) * x.alg.rank


def random_element(alg: AlgebraDescriptor, rng) -> CurrentElement:
    ctx = get_context(alg)
    v = rng.integers(0, alg.p, size=ctx.dim)
    return ctx.from_coords(v)
