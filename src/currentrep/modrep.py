"""Explicit U_χ(g_m)-modules as stacks of generator action matrices.

Induced modules are built on the monomial basis u_1^{a_1}...u_k^{a_k} ⊗ w
over an ordered complement basis (exponents below p), with generator actions
computed by memoised PBW straightening.  Rewriting uses only the structure
constants, the p-power expansions and the reduction u^p = u^{[p]} + χ(u)
(the p-th power of a scalar is itself over F_p).

The complement must be a restricted subalgebra (closed under the bracket and
the p-map; ``OutOfScope`` otherwise).  Then u_j u^a rewrites to a scalar
combination of monomials, and b_g u^a for a base generator b_g to
Σ u^{a'} ⊗ (c_0 + Σ_z c_z ρ_base(z)), linear in the base actions.  The base
is itself a ``ModuleRep`` over the inducing subalgebra, with the same
character, and ``check_module_axioms`` vets it before it is induced.  So every
action is ρ(g) = Σ_z S_{g,z} ⊗ ρ_base(z), z over 1 and the base generators,
and the integer tables S depend only on (algebra, complement, χ on the
complement, base generators): χ enters only through u^p, and λ or the base
actions never enter.  Each build assembles its actions from the tables and
its own base matrices.  The last two keys stay cached: within one round of
the benchmark's workloads every repeated key recurs at LRU stack distance 0
or 1, while the KW scan meets a new key on most builds, so a larger cache
would mainly hold regular-module tables that are not used again.

A weight λ is read as a coordinate vector on the basis of g_m, as a
character is.  The weights compatible with χ, the check of one weight and
the weight of a central twist all solve one linear system, (I - P) λ = χ
with P the p-map, on the toral basis or on the whole basis.
"""

from __future__ import annotations

import functools
import itertools
import sys
import types
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import AlgebraDescriptor, CurrentElement, get_context
from .errors import (BadCharacter, BadTwist, BadWeight, InternalError,
                     NeedsFieldExtension, NoSolution, OutOfScope, TooLarge)
from .pchar import PChar

DEFAULT_LIMIT = 2000
_STEP_GUARD = 20_000_000


@dataclass(frozen=True)
class LambdaWeight:
    """Values of λ on the toral basis, one r-tuple per t-degree."""

    values: tuple  # (m+1) rows, each an r-tuple of F_p values

    @classmethod
    def from_degree_zero(cls, vals, alg: AlgebraDescriptor) -> "LambdaWeight":
        head = tuple(int(v) % alg.p for v in vals)
        if len(head) != alg.rank:
            raise BadWeight("degree-0 part must have one value per toral basis element")
        rest = tuple((0,) * alg.rank for _ in range(alg.m))
        return cls((head,) + rest)

    @property
    def degree_zero(self) -> tuple:
        return self.values[0]

    def coords(self, ctx) -> np.ndarray:
        """λ on the ordered basis of g_m, 0 off the torus.  The toral basis
        runs by degree, then position, as ``values`` does row by row."""
        out = np.zeros(ctx.dim, dtype=np.int64)
        out[ctx.torus_indices] = np.ravel(self.values)
        return out

    def label(self) -> str:
        return "λ=" + ",".join(str(v) for v in self.degree_zero)


@functools.lru_cache(maxsize=None)
def _restricted_system(alg: AlgebraDescriptor, idx: tuple) -> np.ndarray:
    """I - P on the basis elements ``idx``, P the p-map on their coordinates.

    Over F_p a^p = a, so a functional λ on their span satisfies
    λ(x)^p - λ(x^{[p]}) = χ(x)^p on each of them exactly when
    (I - P) λ = χ.  The span must be closed under the p-map.
    """
    idx = list(idx)
    P = get_context(alg).pmap_coords[idx]
    if np.delete(P, idx, axis=1).any():
        raise InternalError("p-map leaves the span of the index set")
    A = (np.eye(len(idx), dtype=np.int64) - P[:, idx]) % alg.p
    A.flags.writeable = False
    return A


def lambda_equations_hold(lam: LambdaWeight, chi: PChar) -> bool:
    """Check λ(h t^i)^p - λ((h t^i)^{[p]}) - χ(h t^i)^p = 0 on the toral basis."""
    ctx = get_context(chi.alg)
    torus = ctx.torus_indices
    A = _restricted_system(chi.alg, tuple(torus))
    residual = (A @ lam.coords(ctx)[torus] - chi.coords()[torus]) % chi.alg.p
    return not residual.any()


def enumerate_lambda(chi: PChar):
    """All F_p-valued weights compatible with χ, in lexicographic order.

    They solve (I - P) λ = χ on the toral basis, an affine space.  The rows
    of degree ≥ 1 are unitriangular (the p-map raises the t-degree), so
    they force λ there, and only the degree-0 equations can fail.
    """
    alg = chi.alg
    ctx = get_context(alg)
    p, r = alg.p, alg.rank
    if not chi.vanishes_on(ctx.nplus_indices):
        raise BadCharacter("character must vanish on the positive part")
    torus = ctx.torus_indices
    A = _restricted_system(alg, tuple(torus))
    try:
        part = linalg.solve(A, chi.coords()[torus], p)
    except NoSolution:
        raise NeedsFieldExtension("degree-0 weight equations have no F_p solution")
    ker = linalg.kernel(A, p)
    out = []
    for coeffs in itertools.product(range(p), repeat=len(ker)):
        v = part.copy()
        for c, row in zip(coeffs, ker):
            v = (v + c * row) % p
        out.append(LambdaWeight(tuple(tuple(row) for row in v.reshape(-1, r).tolist())))
    out.sort(key=lambda w: w.values)
    return out


def _stored(a, p: int) -> np.ndarray:
    """a mod p in the smallest unsigned dtype that holds p - 1.

    The builders pass reduced matrices; checking the range costs a fraction
    of a full remainder, which only runs on entries outside [0, p).  A
    reduced matrix already in that dtype is copied without an int64 detour.
    """
    dtype = np.min_scalar_type(p - 1)
    a = np.asarray(a)
    if a.dtype == dtype and not (a.size and a.max() >= p):
        return a.copy()
    a = a.astype(np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    return a.astype(dtype)


class ModuleRep:
    """Finite-dimensional U_χ-module for the subalgebra spanned by ``gens``.

    ``action(i)`` is the matrix of the basis element ``gens[i]`` acting on
    column vectors, as a fresh int64 array.  The module holds its actions
    in one of two forms.  A built module stores the matrices it is given,
    reduced once mod p, in the smallest unsigned dtype that holds p - 1;
    the constructor is the trusted boundary of the action data, and nothing
    downstream reduces an action again.  ``stack`` is the read-only
    :class:`~currentrep.linalg.ActionStack` of the actions, against which
    every product with them is taken: on first use it replaces the stored
    matrices, and a module made from a stack (a chop node, a restriction or
    a quotient) holds only that stack.  Optional per-basis-vector tags
    carry h*-weights, lattice gradings and the torus t-degree filtration
    used by projective covers.  ``dim`` states the dimension of a module
    over no generators, which has no action to read it from.
    """

    def __init__(self, alg, chi, gens, actions, weight_tags=None,
                 grading_tags=None, tdeg_tags=None, basis_labels=None, dim=0):
        self.alg = alg
        self.chi = chi
        self.gens = tuple(gens)
        if isinstance(actions, linalg.ActionStack):
            self._actions = actions
            self.dim = actions.d
        else:
            self._actions = [_stored(a, alg.p) for a in actions]
            self.dim = self._actions[0].shape[0] if self._actions else dim
        self.weight_tags = weight_tags
        self.grading_tags = grading_tags
        self.tdeg_tags = tdeg_tags
        self.basis_labels = basis_labels

    def action(self, i: int) -> np.ndarray:
        if isinstance(self._actions, linalg.ActionStack):
            return self._actions.action(i)
        return self._actions[i].astype(np.int64)

    @property
    def stack(self) -> linalg.ActionStack:
        """The actions lifted once into a read-only stack, which from then
        on is the only copy the module holds."""
        if not isinstance(self._actions, linalg.ActionStack):
            # a module over no generators states its dimension by an empty stack
            actions = self._actions or np.zeros((0, self.dim, self.dim), dtype=np.int64)
            self._actions = linalg.ActionStack(actions, self.alg.p)
        return self._actions

    def action_of_coords(self, coords) -> np.ndarray:
        """Σ_g coords[g] ρ(g) for the global basis coordinates of an element
        of the span of ``gens``, or for each row of a (..., dim) stack."""
        return self.stack.combination(np.asarray(coords)[..., list(self.gens)])

    @functools.cached_property
    def central_scalars(self) -> tuple:
        """(j, c) for each row j of ``LieContext.centre`` whose element lies
        in the span of ``gens``: c is the scalar it acts by, or None if its
        action is not a scalar.  Isomorphic modules have equal ones."""
        gens = set(self.gens)
        out = []
        for j, z in enumerate(get_context(self.alg).centre):
            if gens.issuperset(np.flatnonzero(z).tolist()):
                A = self.action_of_coords(z)
                c = int(A[0, 0])
                out.append((j, c if np.array_equal(A, c * np.eye(self.dim, dtype=np.int64)) else None))
        return tuple(out)

    def dual(self) -> "ModuleRep":
        acts = [(-self.action(i).T) % self.alg.p for i in range(len(self.gens))]
        wt = None
        if self.weight_tags is not None:
            p = self.alg.p
            wt = [tuple((-v) % p for v in t) for t in self.weight_tags]
        gr = None
        if self.grading_tags is not None:
            ctx = get_context(self.alg)
            gr = [ctx.roots.canonical_weight(tuple(-v for v in t)) for t in self.grading_tags]
        return ModuleRep(self.alg, self.chi, self.gens, acts, weight_tags=wt, grading_tags=gr)

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi.to_json_dict(),
            "dim": self.dim,
            "gens": list(self.gens),
            "basis_labels": self.basis_labels,
            "actions": [self.action(i).ravel().tolist() for i in range(len(self.gens))],
            "weights": [list(t) for t in self.weight_tags] if self.weight_tags else None,
            "grading": [list(t) for t in self.grading_tags] if self.grading_tags else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModuleRep":
        chi = PChar.from_json_dict(d["chi"])
        dim = d["dim"]
        acts = [np.array(enc, dtype=np.int64).reshape(dim, dim) for enc in d["actions"]]
        wt = [tuple(t) for t in d["weights"]] if d.get("weights") else None
        gr = [tuple(t) for t in d["grading"]] if d.get("grading") else None
        return cls(chi.alg, chi, d["gens"], acts, weight_tags=wt, grading_tags=gr,
                   basis_labels=d.get("basis_labels"))


class _NormalForms:
    """Memoised PBW rewriting over Python integers, for one table key.

    Complement-side forms (``prepend``) are {exps: c}, the scalar c on the
    base; base-side forms (``apply``) are {exps: {slot: c}}, with slot 0 the
    identity and slot s the action of ``base_gens[s - 1]``.  The complement
    must be a restricted subalgebra, so that brackets and p-th powers of its
    elements rewrite inside it.
    """

    def __init__(self, ctx, comp, chi_comp, base_gens):
        self.ctx = ctx
        self.p = ctx.alg.p
        self.comp = comp                           # global indices, module order
        self.pos = {g: i for i, g in enumerate(comp)}
        self.chi = chi_comp                        # χ(comp[j]), by position
        self.slot = {g: s + 1 for s, g in enumerate(base_gens)}
        self.memo_apply = {}
        self.memo_prepend = {}
        self.brackets = {}
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > _STEP_GUARD:
            raise InternalError("straightening guard exceeded; basis order violated")

    def _bracket(self, g: int, h: int) -> tuple:
        """Nonzero structure constants (z, c) of [b_g, b_h]."""
        hit = self.brackets.get((g, h))
        if hit is None:
            br = self.ctx.bracket_coords[g, h]
            hit = self.brackets[(g, h)] = tuple((int(z), int(br[z])) for z in np.nonzero(br)[0])
        return hit

    def prepend(self, j: int, a: tuple) -> dict:
        """Normal form of u_j * u^a."""
        key = (j, a)
        hit = self.memo_prepend.get(key)
        if hit is not None:
            return hit
        self._tick()
        p = self.p
        i = next((i for i in range(j) if a[i]), None)
        out = {}
        if i is not None:
            rest = a[:i] + (a[i] - 1,) + a[i + 1:]
            for a2, c in self.prepend(j, rest).items():
                for a3, c2 in self.prepend(i, a2).items():
                    out[a3] = (out.get(a3, 0) + c * c2) % p
            for z, c in self._bracket(self.comp[j], self.comp[i]):
                for a3, c2 in self.prepend(self.pos[z], rest).items():
                    out[a3] = (out.get(a3, 0) + c * c2) % p
        elif a[j] < p - 1:
            out[a[:j] + (a[j] + 1,) + a[j + 1:]] = 1
        else:
            rest = a[:j] + (0,) + a[j + 1:]
            if self.chi[j]:  # χ(u)^p = χ(u) over F_p
                out[rest] = self.chi[j]
            pm = self.ctx.pmap_coords[self.comp[j]]
            for z in np.nonzero(pm)[0]:
                for a3, c2 in self.prepend(self.pos[int(z)], rest).items():
                    out[a3] = (out.get(a3, 0) + int(pm[z]) * c2) % p
        out = {a3: c for a3, c in out.items() if c}
        self.memo_prepend[key] = out
        return out

    def apply(self, g: int, a: tuple) -> dict:
        """Normal form of b_g * u^a, for any generator b_g."""
        if g in self.pos:
            return {a2: {0: c} for a2, c in self.prepend(self.pos[g], a).items()}
        key = (g, a)
        hit = self.memo_apply.get(key)
        if hit is not None:
            return hit
        self._tick()
        p = self.p
        i = next((i for i, v in enumerate(a) if v), None)
        out = {}

        def add(a3, form, c):
            cur = out.setdefault(a3, {})
            for s, v in form.items():
                cur[s] = (cur.get(s, 0) + c * v) % p

        if i is None:
            s = self.slot.get(g)
            if s is None:
                raise InternalError("generator outside complement and base subalgebra")
            out[a] = {s: 1}
        else:
            rest = a[:i] + (a[i] - 1,) + a[i + 1:]
            for a2, form in self.apply(g, rest).items():
                for a3, c in self.prepend(i, a2).items():
                    add(a3, form, c)
            for z, c in self._bracket(g, self.comp[i]):
                for a3, form in self.apply(z, rest).items():
                    add(a3, form, c)
        out = {a3: f for a3, f in ((a3, {s: v for s, v in f.items() if v})
                                   for a3, f in out.items()) if f}
        self.memo_apply[key] = out
        return out


@functools.lru_cache(maxsize=2)
def _normal_form_tables(alg, comp: tuple, chi_comp: tuple, base_gens: tuple):
    """Read-only COO tables (rows, cols, slots, coefs) of every generator.

    Entry (r, c, s, x) puts x times slot s (0: the identity, else the action
    of ``base_gens[s - 1]``) in the block at monomial row r, column c; the
    entries of one block are adjacent.
    """
    ctx = get_context(alg)
    inner = np.array(comp, dtype=np.intp)
    outer = np.array([z for z in range(ctx.dim) if z not in comp], dtype=np.intp)
    if (np.any(ctx.bracket_coords[np.ix_(inner, inner, outer)])
            or np.any(ctx.pmap_coords[np.ix_(inner, outer)])):
        raise OutOfScope("complement is not closed under the bracket and the p-map")
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
    nf = _NormalForms(ctx, comp, chi_comp, base_gens)
    exps = list(itertools.product(range(alg.p), repeat=len(comp)))
    rank = {a: t for t, a in enumerate(exps)}
    tables = {}
    for g in sorted(set(comp) | set(base_gens)):
        rows, cols, slots, coefs = [], [], [], []
        for col, a in enumerate(exps):
            for a2, form in nf.apply(g, a).items():
                for s, c in form.items():
                    rows.append(rank[a2])
                    cols.append(col)
                    slots.append(s)
                    coefs.append(c)
        # the narrowest dtypes, since the tables stay cached
        table = tuple(np.array(x, dtype=np.min_scalar_type(max(x, default=0)))
                      for x in (rows, cols, slots, coefs))
        for x in table:
            x.flags.writeable = False
        tables[g] = table
    return types.MappingProxyType(tables)


def _assemble(table, stack: np.ndarray, nmono: int, p: int) -> np.ndarray:
    """Σ_blocks Σ_s coef · stack[s] from one COO table, in the stored dtype."""
    rows, cols, slots, coefs = table
    bd = stack.shape[1]
    out = np.zeros((nmono * bd, nmono * bd), dtype=np.min_scalar_type(p - 1))
    if not rows.size:
        return out
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    block = np.cumsum(first) - 1
    acc = np.zeros((int(block[-1]) + 1, bd, bd), dtype=np.int64)
    for s, mat in enumerate(stack):
        sel = slots == s  # each block holds each slot at most once
        acc[block[sel]] += coefs[sel, None, None] * mat % p
    out.reshape(nmono, bd, nmono, bd)[rows[first], :, cols[first], :] = acc % p
    return out


def exps_of_rank(rank: int, k: int, p: int) -> tuple:
    out = [0] * k
    for i in range(k - 1, -1, -1):
        out[i] = rank % p
        rank //= p
    return tuple(out)


def build_induced(chi: PChar, comp_indices, base: ModuleRep, limit: int = DEFAULT_LIMIT) -> ModuleRep:
    """U_χ(g') ⊗_{U_χ(q)} base on the monomial basis over the complement.

    ``comp_indices`` (ordered as in the global basis) spans the complement
    subalgebra; ``base`` is a module with character χ for the inducing
    subalgebra q spanned by ``base.gens``, and must satisfy the module
    axioms.  The result is a module for the span of both.
    """
    alg = chi.alg
    ctx = get_context(alg)
    p = alg.p
    comp = tuple(comp_indices)
    k = len(comp)
    nmono = p ** k
    dim = nmono * base.dim
    if dim > limit:
        raise TooLarge(f"module dimension {dim} exceeds limit {limit}")
    if base.chi != chi:
        raise BadCharacter("base module has another character")
    axioms = check_module_axioms(base)
    if not axioms.ok:
        *where, why = (axioms.bracket_failures + axioms.power_failures)[0]
        raise BadCharacter(f"base module: {why} at {', '.join(ctx.meta[g].label for g in where)}")
    cc = chi.coords()
    tables = _normal_form_tables(alg, comp, tuple(int(cc[g]) for g in comp), base.gens)
    stack = np.stack([np.eye(base.dim, dtype=np.int64)]
                     + [base.action(i) for i in range(len(base.gens))])
    gens = sorted(tables)
    actions = [_assemble(tables[g], stack, nmono, p) for g in gens]
    all_exps = list(itertools.product(range(p), repeat=k))
    exps = np.array(all_exps, dtype=np.int64).reshape(nmono, k)
    weight_tags = grading_tags = tdeg_tags = None
    if base.weight_tags is not None:
        comp_w = np.array([ctx.weight_of(g) for g in comp], dtype=np.int64).reshape(k, alg.rank)
        shifts = exps @ comp_w
        weight_tags = [tuple((b + s) % p for b, s in zip(bw, shift))
                       for shift in shifts.tolist() for bw in base.weight_tags]
    if base.grading_tags is not None:
        # canonical lattice weights add linearly
        comp_g = np.array([ctx.grading_of(g) for g in comp], dtype=np.int64).reshape(k, alg.n)
        shifts = exps @ comp_g
        grading_tags = [ctx.roots.weight_add(bg, shift)
                        for shift in shifts.tolist() for bg in base.grading_tags]
    if base.tdeg_tags is not None:
        tdeg_tags = list(base.tdeg_tags) * nmono
    labels = None
    if base.basis_labels is not None:
        labels = []
        for a in all_exps:
            mono = " ".join(f"{ctx.meta[g].label}^{ai}" for g, ai in zip(comp, a) if ai) or "1"
            for bl in base.basis_labels:
                labels.append(f"{mono} ⊗ {bl}")
    return ModuleRep(alg, chi, gens, actions, weight_tags=weight_tags,
                     grading_tags=grading_tags, tdeg_tags=tdeg_tags,
                     basis_labels=labels)


def _weight_line(chi: PChar, lam: LambdaWeight, gens) -> ModuleRep:
    """The one-dimensional module k_λ over ``gens``: toral generators act by
    λ, the others by 0."""
    vals = lam.coords(get_context(chi.alg))
    acts = [[[vals[g]]] for g in gens]
    return ModuleRep(chi.alg, chi, gens, acts, weight_tags=[lam.degree_zero],
                     basis_labels=["1_" + lam.label()])


def build_baby_verma(chi: PChar, lam: LambdaWeight, limit: int = DEFAULT_LIMIT,
                     gamma=None) -> ModuleRep:
    """Borel induction of the one-dimensional weight module k_λ.

    With ``gamma`` a lattice weight lifting λ, the module carries the lattice
    grading with the highest vector in degree gamma.
    """
    ctx = get_context(chi.alg)
    if not lambda_equations_hold(lam, chi):
        raise BadWeight("weight is not compatible with the character")
    base = _weight_line(chi, lam, ctx.torus_indices + ctx.nplus_indices)
    if gamma is not None:
        gam = ctx.roots.canonical_weight(gamma)
        if ctx.roots.d_map(gam) != tuple(lam.degree_zero):
            raise BadWeight("gamma does not lift the weight")
        base.grading_tags = [gam]
    return build_induced(chi, ctx.nminus_indices, base, limit)


def build_dual_verma(lam: LambdaWeight, alg: AlgebraDescriptor, limit: int = DEFAULT_LIMIT) -> ModuleRep:
    """Dual baby Verma at χ = 0: induce -λ from the opposite side and dualise."""
    ctx = get_context(alg)
    chi = PChar.zero(alg)
    neg = LambdaWeight(tuple(tuple((-v) % alg.p for v in row) for row in lam.values))
    base = _weight_line(chi, neg, ctx.torus_indices + ctx.nminus_indices)
    return build_induced(chi, ctx.nplus_indices, base, limit).dual()


def build_torus_projective(chi: PChar, lam: LambdaWeight) -> ModuleRep:
    """Induction of k_λ from the degree-0 torus to the truncated torus with
    the character χ, dimension p^{m r}; at χ = 0 this is the projective
    cover of k_λ over the truncated torus."""
    alg = chi.alg
    ctx = get_context(alg)
    torus = ctx.torus_indices
    deg0 = [i for i in torus if ctx.meta[i].degree == 0]
    higher = [i for i in torus if ctx.meta[i].degree >= 1]
    M = build_induced(chi, higher, _weight_line(chi, lam, deg0), limit=10 ** 9)
    # t-degree of each monomial in the h t^i generators
    degs = [ctx.meta[g].degree for g in higher]
    M.tdeg_tags = [sum(a * d for a, d in zip(exps_of_rank(t, len(higher), alg.p), degs))
                   for t in range(alg.p ** len(higher))]
    return M


def build_Zproj(chi: PChar, lam: LambdaWeight, limit: int = DEFAULT_LIMIT) -> ModuleRep:
    """Borel induction of the torus projective cover; carries the torus
    t-degree filtration tags used to witness its baby-Verma filtration."""
    alg = chi.alg
    ctx = get_context(alg)
    higher = [i for i in ctx.torus_indices if ctx.meta[i].degree >= 1]
    dim = alg.p ** (len(ctx.nminus_indices) + len(higher))
    if dim > limit:
        raise TooLarge(f"module dimension {dim} exceeds limit {limit}")
    Q = build_torus_projective(chi, lam)
    # Q with n+ acting by zero
    zero = np.zeros((Q.dim, Q.dim), dtype=np.int64)
    gens = sorted(set(Q.gens) | set(ctx.nplus_indices))
    acts = [Q.action(Q.gens.index(g)) if g in Q.gens else zero for g in gens]
    base = ModuleRep(alg, chi, gens, acts, weight_tags=Q.weight_tags, tdeg_tags=Q.tdeg_tags,
                     basis_labels=Q.basis_labels)
    return build_induced(chi, ctx.nminus_indices, base, limit)


def inflate(M: ModuleRep, target_m: int) -> ModuleRep:
    """View a g_k-module as a g_m-module with the high layers acting by zero."""
    alg = M.alg
    if target_m < alg.m:
        raise ValueError("target order must be at least the current order")
    if target_m == alg.m:
        return M
    ctx_small = get_context(alg)
    if len(M.gens) != ctx_small.dim:
        raise ValueError("inflation expects a module over the full algebra")
    tgt = alg.at_order(target_m)
    ctx_big = get_context(tgt)
    key_of = {}
    for i in M.gens:
        meta = ctx_small.meta[i]
        key_of[(meta.part, meta.degree, meta.pos)] = i
    slots = {g: i for i, g in enumerate(M.gens)}
    gens = []
    actions = []
    zero = np.zeros((M.dim, M.dim), dtype=np.int64)
    for meta in ctx_big.meta:
        small = key_of.get((meta.part, meta.degree, meta.pos))
        gens.append(meta.index)
        actions.append(M.action(slots[small]) if small is not None else zero)
    # inflated character: shift the dual element up by (target_m - m)
    shift = target_m - alg.m
    coeffs = np.zeros((target_m + 1, alg.n, alg.n), dtype=np.int64)
    coeffs[shift:] = M.chi.dual.coeffs
    chi_big = PChar(CurrentElement(tgt, coeffs))
    return ModuleRep(tgt, chi_big, gens, actions, weight_tags=M.weight_tags,
                     grading_tags=M.grading_tags, basis_labels=M.basis_labels)


def solve_twist_weight(eta: PChar) -> np.ndarray:
    """One-dimensional weight μ with μ(x)^p - μ(x^{[p]}) = η(x)^p on the basis."""
    A = _restricted_system(eta.alg, tuple(range(get_context(eta.alg).dim)))
    return linalg.solve(A, eta.coords(), eta.alg.p)


def twist_module(M: ModuleRep, eta: PChar) -> ModuleRep:
    """Tensor with the one-dimensional module attached to η.

    η must kill the derived subalgebra; the generator actions shift by the
    scalars of the solved twist weight and the character moves to χ + η.
    """
    alg = M.alg
    ctx = get_context(alg)
    p = alg.p
    brackets = ctx.bracket_coords[np.ix_(M.gens, M.gens)]
    if np.any(brackets @ eta.coords() % p):
        raise BadTwist("twisting functional does not vanish on the derived subalgebra")
    mu = solve_twist_weight(eta)
    if np.any(brackets @ mu % p):
        raise BadTwist("twist weight fails to kill the derived subalgebra")
    eye = np.eye(M.dim, dtype=np.int64)
    actions = []
    for slot, g in enumerate(M.gens):
        actions.append((M.action(slot) + int(mu[g]) * eye) % p)
    chi_new = PChar(M.chi.dual + eta.dual)
    weight_tags = None
    if M.weight_tags is not None:
        deg0 = [i for i in ctx.torus_indices if ctx.meta[i].degree == 0]
        shift = [int(mu[i]) for i in deg0]
        weight_tags = [tuple((w + s) % p for w, s in zip(tag, shift)) for tag in M.weight_tags]
    return ModuleRep(alg, chi_new, M.gens, actions, weight_tags=weight_tags,
                     grading_tags=M.grading_tags, tdeg_tags=M.tdeg_tags,
                     basis_labels=M.basis_labels)


def build_regular_module(chi: PChar, limit: int = DEFAULT_LIMIT) -> ModuleRep:
    """Left multiplication on the PBW monomial basis of U_χ(g_m)."""
    alg = chi.alg
    ctx = get_context(alg)
    if alg.p ** ctx.dim > limit:
        raise TooLarge(f"regular module dimension p^{ctx.dim} exceeds limit {limit}")
    trivial = ModuleRep(alg, chi, (), [], dim=1)
    return build_induced(chi, list(range(ctx.dim)), trivial, limit)


@dataclass
class AxiomReport:
    bracket_failures: list
    power_failures: list

    @property
    def ok(self) -> bool:
        return not self.bracket_failures and not self.power_failures


def check_module_axioms(M: ModuleRep) -> AxiomReport:
    """Exact verification of bracket compatibility and the p-power rule.

    A bracket or p-th power that leaves the span of ``M.gens`` is a failure
    of its rule.  The products are taken one generator against a stack of
    the others, and the p-th powers of all generators at once.
    """
    ctx = get_context(M.alg)
    p = M.alg.p
    cc = M.chi.coords()
    gens = list(M.gens)
    k = len(gens)
    acts = np.array([M.action(i) for i in range(k)], dtype=np.int64).reshape(k, M.dim, M.dim)
    outside = np.ones(ctx.dim, dtype=bool)
    outside[gens] = False

    bracket_failures = []
    for a, gi in enumerate(gens):
        later = [b for b, gj in enumerate(gens) if gj > gi]
        commutators = (linalg.matmul(acts[a], acts[later], p)
                       - linalg.matmul(acts[later], acts[a], p)) % p
        coords = ctx.bracket_coords[gi, [gens[b] for b in later]]
        for b, lhs, rhs, leaves in zip(later, commutators, M.action_of_coords(coords),
                                       coords[:, outside].any(axis=1)):
            if leaves:
                bracket_failures.append((gi, gens[b], "bracket leaves the subalgebra"))
            elif not np.array_equal(lhs, rhs):
                bracket_failures.append((gi, gens[b], "bracket compatibility fails"))
    power_failures = []
    coords = ctx.pmap_coords[gens]
    # χ(x)^p = χ(x) over F_p
    rhs = (cc[gens, None, None] * np.eye(M.dim, dtype=np.int64) + M.action_of_coords(coords)) % p
    for gi, lhs, r, leaves in zip(gens, linalg.matpow(acts, p, p), rhs,
                                  coords[:, outside].any(axis=1)):
        if leaves:
            power_failures.append((gi, "p-power leaves the subalgebra"))
        elif not np.array_equal(lhs, r):
            power_failures.append((gi, "p-power rule fails"))
    return AxiomReport(bracket_failures, power_failures)
