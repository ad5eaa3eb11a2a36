"""Linear functionals on g_m through the invariant-form duality.

A functional χ is always stored via the element c with χ = κ_m(c, ·); the
Jordan theory, centralisers and support filtrations of χ are then read off
from c.  Its values on the basis are coords(c) times the Gram matrix, and
``stabilizer_dim_coeffs`` takes the stabiliser dimensions of a whole stack
of duals at once.  Also holds the Jordan-normal-form machinery placing
degree-zero nilpotents of gl_n in standard Levi position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (AlgebraDescriptor, CurrentElement, centralizer_dim_coeffs,
                      classify_element, get_context, jordan_decompose, kappa_m)
from .errors import (InternalError, InvalidDescriptor, NotNilpotent,
                     UnsupportedTruncation)


class PChar:
    """p-character on g_m, stored as its form-dual element."""

    __slots__ = ("dual", "_flags")

    def __init__(self, dual: CurrentElement):
        self.dual = dual
        self._flags = {}

    @property
    def alg(self) -> AlgebraDescriptor:
        return self.dual.alg

    @classmethod
    def zero(cls, alg: AlgebraDescriptor) -> "PChar":
        return cls(CurrentElement.zero(alg))

    def __call__(self, y: CurrentElement) -> int:
        return kappa_m(self.dual, y)

    def __eq__(self, other):
        return isinstance(other, PChar) and self.dual == other.dual

    def __hash__(self):
        return hash(self.dual)

    def is_zero(self) -> bool:
        return self.dual.is_zero()

    def coords(self) -> np.ndarray:
        """Values on the ordered basis of g_m."""
        if "coords" not in self._flags:
            ctx = get_context(self.alg)
            # χ(b_j) = κ_m(c, b_j) = Σ_i c_i κ_m(b_i, b_j)
            self._flags["coords"] = linalg.matmul(ctx.coords(self.dual), ctx.gram_matrix, self.alg.p)
        return self._flags["coords"]

    def vanishes_on(self, indices) -> bool:
        return not np.any(self.coords()[list(indices)])

    def support_degrees(self):
        """Degrees j with χ nonzero on g_m^{(j)}."""
        m = self.alg.m
        return [m - i for i in self.dual.support_degrees()]

    def classify(self) -> str:
        if "classify" not in self._flags:
            self._flags["classify"] = classify_element(self.dual)
        return self._flags["classify"]

    def to_json_dict(self) -> dict:
        supp = self.support_degrees()
        return {
            "dual": self.dual.to_json_dict(),
            "support_degrees": supp,
            "homogeneous": len(supp) == 1,
            "class": self.classify(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PChar":
        return cls(CurrentElement.from_json_dict(d["dual"]))

    def __repr__(self):
        return f"PChar({self.alg.label()}, support={self.support_degrees()})"


def pchar_from_element(c: CurrentElement) -> PChar:
    alg = c.alg
    if alg.kind == "sl" and alg.n % alg.p == 0:
        raise InvalidDescriptor("form degenerate: cannot dualise")
    return PChar(c)


def support_degree(chi: PChar):
    """(max support degree k, homogeneous degree or None).

    The zero functional reports (0, None) by convention and is flagged
    degenerate by callers through ``chi.is_zero()``.
    """
    supp = chi.support_degrees()
    if not supp:
        return 0, None
    k = max(supp)
    return k, (supp[0] if len(supp) == 1 else None)


def pchar_jordan(chi: PChar):
    s, n = jordan_decompose(chi.dual)
    return PChar(s), PChar(n)


def stabilizer_dim_coeffs(duals: np.ndarray, alg: AlgebraDescriptor):
    """dim g_m^χ for the character χ = κ_m(c, ·) of each dual coefficient
    array c of (..., m+1, n, n), via the kernel of the coadjoint matrix
    M[i, j] = χ([b_j, b_i]).  Cross-checked against the adjoint centraliser
    of c; raises InternalError if any member disagrees."""
    ctx = get_context(alg)
    D, p = ctx.dim, alg.p
    values = linalg.matmul(ctx.coords(duals).reshape(-1, D), ctx.gram_matrix, p)
    coadjoint = linalg.matmul(values, ctx.bracket_coords.reshape(D * D, D).T, p)
    coadjoint = coadjoint.reshape(*duals.shape[:-3], D, D).swapaxes(-1, -2)
    d = D - linalg.rank(coadjoint, p)
    if np.any(d != centralizer_dim_coeffs(duals, alg)):
        raise InternalError("coadjoint and adjoint stabiliser dimensions disagree")
    return d


def stabilizer_dim(chi: PChar) -> int:
    """dim g_m^χ via the coadjoint kernel; cross-checked against the dual."""
    return stabilizer_dim_coeffs(chi.dual.coeffs, chi.alg)


def truncate_pchar(chi: PChar, k: int) -> PChar:
    """Restrict a character supported in degree <= k to g_k."""
    alg = chi.alg
    if k > alg.m:
        raise UnsupportedTruncation("k exceeds the truncation order")
    supp = chi.support_degrees()
    if supp and max(supp) > k:
        raise UnsupportedTruncation(f"support {supp} exceeds degree {k}")
    tgt = alg.at_order(k)
    shift = alg.m - k
    coeffs = chi.dual.coeffs[shift:]
    return PChar(CurrentElement(tgt, coeffs))


@dataclass
class LeviData:
    """Standard-Levi normal form of a degree-zero nilpotent."""

    partition: tuple
    conjugator: np.ndarray            # g with g e g^{-1} in Jordan form
    jordan_form: np.ndarray
    simple_subset: tuple              # I as 1-based simple-root indices
    blocks: tuple                     # index ranges of the Levi blocks
    z_levi_basis: list = field(default_factory=list)  # diagonal matrices spanning z(g_I)

    @property
    def dim_z_levi(self) -> int:
        return len(self.z_levi_basis)


def _nilpotent_jordan_chains(A: np.ndarray, p: int):
    """Jordan chains [w, Aw, A^2 w, ...] for a nilpotent matrix acting on columns."""
    n = A.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    while np.any(powers[-1]):
        powers.append(linalg.matmul(powers[-1], A, p))
    s = len(powers) - 1  # nilpotency index: A^s = 0
    kernels = [linalg.kernel(powers[j], p) for j in range(s + 1)]  # K_0 empty
    chains = []
    for j in range(s, 0, -1):
        # covered at height j: K_{j-1} plus the height-j members of longer chains
        covered = linalg.Echelon(n, p)
        if kernels[j - 1].shape[0]:
            covered.add_rows(kernels[j - 1])
        for chain in chains:
            covered.add_rows(chain[len(chain) - j].reshape(1, -1))
        for w in kernels[j]:
            if not covered.contains(w):
                chain = [w]
                for _ in range(j - 1):
                    chain.append(linalg.matmul(A, chain[-1].reshape(-1, 1), p).ravel())
                chains.append(chain)
                covered.add_rows(w.reshape(1, -1))
    return chains


def standard_levi_form(e: CurrentElement) -> LeviData:
    """Jordan normal form of a degree-zero nilpotent with its conjugator.

    The Jordan form equals the sum of the simple root vectors of the Levi
    subalgebra cut out by the block partition.
    """
    alg = e.alg
    if any(d != 0 for d in e.support_degrees()):
        raise NotNilpotent("element must be concentrated in degree 0")
    A = e.graded_piece(0)
    p, n = alg.p, alg.n
    if np.any(linalg.matpow(A, n, p)):
        raise NotNilpotent("matrix is not nilpotent")
    chains = _nilpotent_jordan_chains(A, p)
    chains.sort(key=len, reverse=True)
    cols = []
    blocks = []
    start = 0
    for chain in chains:
        k = len(chain)
        # chain[i] = (A^i w) as column vectors; order A^{k-1}w, ..., Aw, w
        for v in reversed(chain):
            cols.append(v)
        blocks.append((start, start + k))
        start += k
    P = np.stack(cols, axis=1) % p
    g = linalg.inv(P, p)
    J = linalg.matmul(linalg.matmul(g, A, p), P, p)
    partition = tuple(len(c) for c in chains)
    expected = np.zeros((n, n), dtype=np.int64)
    for a, b in blocks:
        for i in range(a, b - 1):
            expected[i, i + 1] = 1
    if not np.array_equal(J, expected):
        raise InternalError("conjugation did not reach the block Jordan form")
    boundaries = set(np.cumsum(partition)[:-1].tolist())
    simple_subset = tuple(i for i in range(1, n) if i not in boundaries)
    z_basis = _levi_centre_basis(alg, blocks)
    return LeviData(partition, g, J, simple_subset, tuple(blocks), z_basis)


def _levi_centre_basis(alg: AlgebraDescriptor, blocks):
    """Diagonal matrices spanning the centre of the block Levi inside g."""
    n, p = alg.n, alg.p
    mats = []
    for a, b in blocks:
        d = np.zeros((n, n), dtype=np.int64)
        for i in range(a, b):
            d[i, i] = 1
        mats.append(d)
    if alg.kind == "gl":
        return mats
    # sl: combinations with zero trace
    sizes = np.array([b - a for a, b in blocks], dtype=np.int64).reshape(1, -1)
    ker = linalg.kernel(sizes, p)
    out = []
    for row in ker:
        d = np.zeros((n, n), dtype=np.int64)
        for c, mat in zip(row, mats):
            d = (d + int(c) * mat) % p
        out.append(d)
    return out


def random_pchar(alg: AlgebraDescriptor, rng) -> PChar:
    ctx = get_context(alg)
    v = rng.integers(0, alg.p, size=ctx.dim)
    return PChar(ctx.from_coords(v))


def index_estimate(alg: AlgebraDescriptor, samples: int, seed: int):
    """Minimum sampled coadjoint stabiliser dimension with its witness.

    Per-sample seeds are derived from the master seed, so the result does not
    depend on evaluation order.  All samples are evaluated as one stack, and
    the witness is the first sample of minimal dimension.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    ctx = get_context(alg)
    coords = np.array([np.random.default_rng((seed, i)).integers(0, alg.p, size=ctx.dim)
                       for i in range(samples)])
    dims = stabilizer_dim_coeffs(ctx.from_coords(coords), alg)
    first = int(np.argmin(dims))
    return int(dims[first]), PChar(ctx.from_coords(coords[first]))
