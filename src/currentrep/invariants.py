"""Symmetric invariants of g_m via characteristic coefficients over R_m.

The generators are the t-expansion coefficients p_{i,j} of the i-th
characteristic coefficient of a matrix over the truncated ring.  The
characteristic polynomial is computed by the division-free Berkowitz scheme
(R_m has zero divisors, so fraction-based elimination is out).  Exact
forward-mode differentiation over F_p[ε]/(ε²) backs the independence and
ad-invariance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (AlgebraDescriptor, CurrentElement, bracket,
                      get_context, invert_over_ring, random_element,
                      _stack_mult)
from .errors import BadIndex, InternalError, NoSolution
from .truncpoly import TruncPoly


class DualTrunc:
    """Element of R_m[ε]/(ε²): value and first derivative parts."""

    __slots__ = ("val", "der")

    def __init__(self, val: TruncPoly, der: TruncPoly):
        self.val = val
        self.der = der

    @classmethod
    def constant(cls, v: TruncPoly) -> "DualTrunc":
        return cls(v, TruncPoly.zero(v.p, v.m))

    def __add__(self, other):
        return DualTrunc(self.val + other.val, self.der + other.der)

    def __sub__(self, other):
        return DualTrunc(self.val - other.val, self.der - other.der)

    def __neg__(self):
        return DualTrunc(-self.val, -self.der)

    def __mul__(self, other):
        return DualTrunc(self.val * other.val,
                         self.val * other.der + self.der * other.val)

    def is_zero(self):
        return self.val.is_zero() and self.der.is_zero()


def berkowitz_charpoly(A, zero, one):
    """Coefficients [c_0=1, c_1, ..., c_n] of det(X·I - A) = Σ c_i X^{n-i}.

    Division-free; works over any commutative ring given its zero and one.
    """
    n = len(A)
    coeffs = [one]
    for i in range(n):
        a = A[i][i]
        R = [A[i][t] for t in range(i)]
        Cc = [A[t][i] for t in range(i)]
        # s_1 = a, s_k = R · M^{k-2} · Cc for the leading principal block M
        seq = [a]
        vec = Cc
        for _ in range(i):
            if not vec:
                break
            s = zero
            for rr, vv in zip(R, vec):
                s = s + rr * vv
            seq.append(s)
            vec = [_ring_dot(A[t][:i], vec, zero) for t in range(i)]
        # Toeplitz multiply: new[j] = old[j] - sum_{k>=1} seq[k-1] * old[j-k]
        old = coeffs
        new = []
        for j in range(len(old) + 1):
            term = old[j] if j < len(old) else None
            acc = term if term is not None else zero
            for k in range(1, min(j, len(seq)) + 1):
                acc = acc - seq[k - 1] * old[j - k]
            new.append(acc)
        coeffs = new
    return coeffs


def _ring_dot(row, vec, zero):
    s = zero
    for a, b in zip(row, vec):
        s = s + a * b
    return s


def _as_poly_matrix(x: CurrentElement):
    alg = x.alg
    return [[TruncPoly(tuple(int(x.coeffs[d, i, j]) for d in range(alg.m + 1)), alg.p, alg.m)
             for j in range(alg.n)] for i in range(alg.n)]


def generator_index_range(alg: AlgebraDescriptor):
    """Characteristic-coefficient indices used as invariant generators."""
    return range(1, alg.n + 1) if alg.kind == "gl" else range(2, alg.n + 1)


def charpoly_over_ring(x: CurrentElement):
    """Characteristic coefficients c_1..c_n of x as R_m elements."""
    alg = x.alg
    zero = TruncPoly.zero(alg.p, alg.m)
    one = TruncPoly.one(alg.p, alg.m)
    return berkowitz_charpoly(_as_poly_matrix(x), zero, one)


def eval_invariant(i: int, j: int, x: CurrentElement) -> int:
    """Value of p_{i,j}: the t^j-coefficient of the i-th characteristic
    coefficient of x over R_m."""
    alg = x.alg
    if i not in generator_index_range(alg) or not (0 <= j <= alg.m):
        raise BadIndex(f"invariant index ({i}, {j}) out of range")
    coeffs = charpoly_over_ring(x)
    return coeffs[i].coeffs[j]


def all_invariants(x: CurrentElement) -> dict:
    alg = x.alg
    coeffs = charpoly_over_ring(x)
    return {(i, j): coeffs[i].coeffs[j]
            for i in generator_index_range(alg) for j in range(alg.m + 1)}


def random_group_element(alg: AlgebraDescriptor, rng) -> np.ndarray:
    """Random element of GL_n(R_m) as a coefficient stack."""
    while True:
        g = rng.integers(0, alg.p, size=(alg.m + 1, alg.n, alg.n))
        try:
            linalg.inv(g[0], alg.p)
        except NoSolution:
            continue
        return g % alg.p


def conjugate(x: CurrentElement, g: np.ndarray) -> CurrentElement:
    alg = x.alg
    ginv = invert_over_ring(g, alg.p, alg.m)
    out = _stack_mult(_stack_mult(g, x.coeffs, alg.p, alg.m), ginv, alg.p, alg.m)
    return CurrentElement(alg, out)


@dataclass
class InvarianceReport:
    samples: int
    seed: int
    conjugation_failures: list = field(default_factory=list)
    ad_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conjugation_failures and not self.ad_failures


def invariance_check(alg: AlgebraDescriptor, samples: int, seed: int) -> InvarianceReport:
    """p_{i,j}(g x g^{-1}) = p_{i,j}(x) for seeded random x and group points,
    plus vanishing of the directional derivative along bracket directions."""
    report = InvarianceReport(samples, seed)
    for s in range(samples):
        rng = np.random.default_rng((seed, s))
        x = random_element(alg, rng)
        g = random_group_element(alg, rng)
        vals = all_invariants(x)
        vals_conj = all_invariants(conjugate(x, g))
        if vals != vals_conj:
            report.conjugation_failures.append(s)
        # infinitesimal invariance: derivative along [y, x] vanishes at x
        y = random_element(alg, rng)
        der = directional_derivatives(x, bracket(y, x))
        if any(v for v in der.values()):
            report.ad_failures.append(s)
    return report


def directional_derivatives(x: CurrentElement, v: CurrentElement) -> dict:
    """ε-parts of all p_{i,j} at x in direction v, by one dual-number pass."""
    alg = x.alg
    zero = TruncPoly.zero(alg.p, alg.m)
    one = TruncPoly.one(alg.p, alg.m)
    xm = _as_poly_matrix(x)
    vm = _as_poly_matrix(v)
    A = [[DualTrunc(xm[i][j], vm[i][j]) for j in range(alg.n)] for i in range(alg.n)]
    coeffs = berkowitz_charpoly(A, DualTrunc.constant(zero), DualTrunc.constant(one))
    return {(i, j): coeffs[i].der.coeffs[j]
            for i in generator_index_range(alg) for j in range(alg.m + 1)}


@dataclass
class IndependenceReport:
    samples: int
    seed: int
    target_rank: int
    best_rank: int
    witness_sample: int | None

    @property
    def ok(self) -> bool:
        return self.best_rank == self.target_rank


def independence_check(alg: AlgebraDescriptor, samples: int, seed: int) -> IndependenceReport:
    """Jacobian of the (m+1)·r invariant generators at seeded random points;
    full row rank at some sample certifies algebraic independence."""
    ctx = get_context(alg)
    gens = list(generator_index_range(alg))
    nfun = len(gens) * (alg.m + 1)
    target = (alg.m + 1) * alg.rank
    if nfun != target:
        raise InternalError("generator count should be (m+1) * rank")
    best = 0
    witness = None
    for s in range(samples):
        rng = np.random.default_rng((seed, s))
        x = random_element(alg, rng)
        J = np.zeros((nfun, ctx.dim), dtype=np.int64)
        for col, b in enumerate(ctx.basis):
            der = directional_derivatives(x, b)
            for row, (i, j) in enumerate(sorted(der)):
                J[row, col] = der[(i, j)]
        r = linalg.rank(J, alg.p)
        if r > best:
            best, witness = r, s
        if best == target:
            break
    return IndependenceReport(samples, seed, target, best, witness)
