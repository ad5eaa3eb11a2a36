"""Symmetric invariants of g_m via characteristic coefficients over R_m.

The generators are the t-expansion coefficients p_{i,j} of the i-th
characteristic coefficient of a matrix over the truncated ring.  The
characteristic polynomial is computed by the division-free Berkowitz scheme
(R_m has zero divisors, so fraction-based elimination is out) on coefficient
arrays, with the ring product of :mod:`currentrep.algebra`.  Run over the
dual numbers R_m[ε]/(ε²), the same scheme gives exact directional
derivatives, which back the independence and ad-invariance checks.  Both
checks evaluate a whole stack of points or directions in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (AlgebraDescriptor, CurrentElement, bracket_coeffs,
                      get_context, invert_over_ring, random_element,
                      _degree_pairs, _dual_pairs, _ring_mult, _stack_mult)
from .errors import BadIndex, InternalError


def berkowitz_charpoly(a: np.ndarray, pairs: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (..., n+1, K) of det(X·I - A) = Σ_i c_i X^{n-i}, c_0 = 1,
    for coefficient arrays A (..., K, n, n) over the monomial ring whose
    structure tensor is ``pairs``.

    Division-free (Berkowitz 1984), so it holds over any commutative ring:
    c = T_{n-1} ··· T_0 · (1), where T_i is the (i+2) × (i+1) lower
    triangular Toeplitz matrix whose first column is 1, -a_ii, -R C,
    -R M C, ..., -R M^{i-1} C, for the leading i × i block M, the row
    R = A[i, :i] and the column C = A[:i, i].
    """
    K = a.shape[-3]
    one = np.zeros(a.shape[:-3] + (K, 1, 1), dtype=np.int64)
    one[..., 0, 0, 0] = 1
    c = one
    for i in range(a.shape[-1]):
        M, R, v = a[..., :i, :i], a[..., i:i + 1, :i], a[..., :i, i:i + 1]
        seq = [a[..., i:i + 1, i:i + 1]]
        for _ in range(i):
            seq.append(_ring_mult(R, v, pairs, p))
            v = _ring_mult(M, v, pairs, p)
        col = np.concatenate([one] + [(-s) % p for s in seq], axis=-2)[..., 0]
        lag = np.subtract.outer(np.arange(i + 2), np.arange(i + 1))
        T = np.where(lag >= 0, col[..., np.maximum(lag, 0)], 0)
        c = _ring_mult(T, c, pairs, p)
    return c[..., 0].swapaxes(-1, -2)


def generator_index_range(alg: AlgebraDescriptor):
    """Characteristic-coefficient indices used as invariant generators."""
    return range(1, alg.n + 1) if alg.kind == "gl" else range(2, alg.n + 1)


def charpoly_over_ring(x: CurrentElement) -> np.ndarray:
    """Characteristic coefficients c_0..c_n of x over R_m, as an
    (n+1, m+1) array: row i holds the t-coefficients of c_i."""
    return berkowitz_charpoly(x.coeffs, _degree_pairs(x.alg.m), x.alg.p)


def _derivatives(a: np.ndarray, v: np.ndarray, alg: AlgebraDescriptor) -> np.ndarray:
    """ε-parts (..., n+1, m+1) of the characteristic coefficients of
    a + εv, for coefficient arrays broadcast against each other: the
    derivatives at a in direction v."""
    dual = np.concatenate(np.broadcast_arrays(a, v), axis=-3)
    return berkowitz_charpoly(dual, _dual_pairs(alg.m), alg.p)[..., alg.m + 1:]


def eval_invariant(i: int, j: int, x: CurrentElement) -> int:
    """Value of p_{i,j}: the t^j-coefficient of the i-th characteristic
    coefficient of x over R_m."""
    alg = x.alg
    if i not in generator_index_range(alg) or not (0 <= j <= alg.m):
        raise BadIndex(f"invariant index ({i}, {j}) out of range")
    return int(charpoly_over_ring(x)[i, j])


def random_group_element(alg: AlgebraDescriptor, rng) -> np.ndarray:
    """Random element of GL_n(R_m) as a coefficient stack."""
    while True:
        g = rng.integers(0, alg.p, size=(alg.m + 1, alg.n, alg.n))
        if linalg.rank(g[0], alg.p) == alg.n:
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
    conjugation_failures: list
    ad_failures: list

    @property
    def ok(self) -> bool:
        return not self.conjugation_failures and not self.ad_failures


def invariance_check(alg: AlgebraDescriptor, samples: int, seed: int) -> InvarianceReport:
    """p_{i,j}(g x g^{-1}) = p_{i,j}(x) for seeded random x and group points,
    plus vanishing of the directional derivative along bracket directions."""
    xs, conj, ys = [], [], []
    for s in range(samples):
        rng = np.random.default_rng((seed, s))
        x = random_element(alg, rng)
        g = random_group_element(alg, rng)
        xs.append(x.coeffs)
        conj.append(conjugate(x, g).coeffs)
        ys.append(random_element(alg, rng).coeffs)
    gens = list(generator_index_range(alg))
    shape = (-1, alg.m + 1, alg.n, alg.n)
    X, C, Y = (np.array(a, dtype=np.int64).reshape(shape) for a in (xs, conj, ys))
    pairs = _degree_pairs(alg.m)
    moved = (berkowitz_charpoly(X, pairs, alg.p)[:, gens]
             != berkowitz_charpoly(C, pairs, alg.p)[:, gens])
    # infinitesimal invariance: the derivative along [y, x] vanishes at x
    der = _derivatives(X, bracket_coeffs(Y, X, alg), alg)[:, gens]
    return InvarianceReport(samples, seed,
                            np.flatnonzero(moved.any(axis=(1, 2))).tolist(),
                            np.flatnonzero(der.any(axis=(1, 2))).tolist())


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
        # row (i, j) in sorted order, column = basis direction
        J = _derivatives(x.coeffs, ctx.basis_coeffs, alg)[:, gens].reshape(ctx.dim, nfun).T
        r = linalg.rank(J, alg.p)
        if r > best:
            best, witness = r, s
        if best == target:
            break
    return IndependenceReport(samples, seed, target, best, witness)
