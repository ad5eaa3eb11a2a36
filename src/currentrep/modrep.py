"""Explicit U_χ(g_m)-modules as stacks of generator action matrices.

Induced modules are built on the monomial basis u_1^{a_1}...u_k^{a_k} ⊗ w
over an ordered complement basis (exponents below p), with generator actions
computed by memoised PBW straightening.  Rewriting uses only the structure
constants, the p-power expansions and the reduction u^p = u^{[p]} + χ(u)
(the p-th power of a scalar is itself over F_p).

The complement must be a restricted subalgebra (closed under the bracket and
the p-map; ``OutOfScope`` otherwise).  Then u_j u^a rewrites to a scalar
combination of monomials, and b_g u^a for a base generator b_g to
Σ u^{a'} ⊗ (c_0 + Σ_z c_z ρ_base(z)), linear in the base actions.  So every
action is ρ(g) = Σ_z S_{g,z} ⊗ ρ_base(z), z over 1 and the base generators,
and the integer tables S depend only on (algebra, complement, χ on the
complement, base generators): χ enters only through u^p, and λ or the base
actions never enter.  Each build assembles its actions from the tables and
its own base matrices.  The last two keys stay cached: within one round of
the benchmark's workloads every repeated key recurs at LRU stack distance 0
or 1, while the KW scan meets a new key on most builds, so a larger cache
would mainly hold regular-module tables that are not used again.
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

    def value(self, degree: int, j: int) -> int:
        return self.values[degree][j]

    def label(self) -> str:
        return "λ=" + ",".join(str(v) for v in self.degree_zero)


def lambda_equations_hold(lam: LambdaWeight, chi: PChar) -> bool:
    """Check λ(h t^i)^p - λ((h t^i)^{[p]}) - χ(h t^i)^p = 0 on the toral basis."""
    ctx = get_context(chi.alg)
    p = chi.alg.p
    lam_coords = np.zeros(ctx.dim, dtype=np.int64)
    for idx in ctx.torus_indices:
        meta = ctx.meta[idx]
        j = meta.pos[0]
        lam_coords[idx] = lam.value(meta.degree, j)
    for idx in ctx.torus_indices:
        lhs = pow(int(lam_coords[idx]), p, p)
        lhs = (lhs - int(np.dot(ctx.pmap_coords[idx], lam_coords) % p)) % p
        rhs = pow(int(chi.coords(ctx)[idx]), p, p)
        if lhs != rhs:
            return False
    return True


def enumerate_lambda(chi: PChar):
    """All F_p-valued weights compatible with χ, solved top degree down.

    Degrees m..1 are forced; degree 0 gives the additive equations
    λ(h)^p - λ(h^{[p]}) = χ(h)^p whose F_p-solutions (if any) form an affine
    space enumerated in lexicographic order.
    """
    alg = chi.alg
    ctx = get_context(alg)
    p, m, r = alg.p, alg.m, alg.rank
    if not chi.vanishes_on(ctx.nplus_indices, ctx):
        raise BadCharacter("character must vanish on the positive part")
    cc = chi.coords(ctx)
    torus = ctx.torus_indices
    by_deg = {d: [i for i in torus if ctx.meta[i].degree == d] for d in range(m + 1)}
    forced = {}
    for d in range(m, 0, -1):
        for idx in by_deg[d]:
            pm = ctx.pmap_coords[idx]
            # λ on the p-power: lands in strictly higher degree, already forced
            acc = 0
            for k in np.nonzero(pm)[0]:
                if k not in forced:
                    raise InternalError("p-power left the forced region")
                acc = (acc + int(pm[k]) * forced[k]) % p
            # λ(x)^p = λ(x) over F_p, so λ(x) = χ(x) + λ(x^{[p]})
            forced[idx] = (int(cc[idx]) + acc) % p
    # degree 0: linear system (I - P0) * v = χ-values, P0 from the p-map
    deg0 = by_deg[0]
    A = np.eye(r, dtype=np.int64)
    rhs = np.zeros(r, dtype=np.int64)
    for row, idx in enumerate(deg0):
        pm = ctx.pmap_coords[idx]
        acc = 0
        for k in np.nonzero(pm)[0]:
            if k in forced:
                acc = (acc + int(pm[k]) * forced[k]) % p
            else:
                col = deg0.index(k)
                A[row, col] = (A[row, col] - int(pm[k])) % p
        rhs[row] = (int(cc[idx]) + acc) % p
    try:
        part = linalg.solve(A, rhs, p)
    except NoSolution:
        raise NeedsFieldExtension("degree-0 weight equations have no F_p solution")
    ker = linalg.kernel(A, p)
    out = []
    # coefficient vectors of the kernel rows in lexicographic order
    for coeffs in itertools.product(range(p), repeat=len(ker)):
        v = part.copy()
        for c, row in zip(coeffs, ker):
            v = (v + c * row) % p
        rows = [tuple(int(x) for x in v)]
        for d in range(1, m + 1):
            rows.append(tuple(forced[idx] for idx in by_deg[d]))
        out.append(LambdaWeight(tuple(rows)))
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
    used by projective covers.
    """

    def __init__(self, alg, chi, gens, actions, weight_tags=None,
                 grading_tags=None, tdeg_tags=None, basis_labels=None):
        self.alg = alg
        self.chi = chi
        self.gens = tuple(gens)
        if isinstance(actions, linalg.ActionStack):
            self._actions = actions
            self.dim = actions.d
        else:
            self._actions = [_stored(a, alg.p) for a in actions]
            self.dim = self._actions[0].shape[0] if self._actions else 0
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
            self._actions = linalg.ActionStack(self._actions, self.alg.p)
        return self._actions

    def action_of_coords(self, coords) -> np.ndarray:
        """Matrix of an arbitrary element given by global basis coordinates."""
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for slot, g in enumerate(self.gens):
            c = int(coords[g])
            if c:
                out += c * self.action(slot)
        return out % self.alg.p

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


@dataclass
class BaseModule:
    """Module over the inducing subalgebra, given by per-generator actions."""

    gens: tuple                       # global basis indices
    actions: dict                     # index -> (d, d) matrix
    dim: int
    weight_tags: list = None
    grading_tags: list = None
    tdeg_tags: list = None
    labels: list = None


def one_dim_base(gens, values: dict) -> BaseModule:
    acts = {g: np.array([[values.get(g, 0)]], dtype=np.int64) for g in gens}
    return BaseModule(tuple(gens), acts, 1)


def _check_base_axioms(ctx, chi, base: BaseModule):
    p = ctx.alg.p
    cc = chi.coords(ctx)
    for gi in base.gens:
        for gj in base.gens:
            if gj <= gi:
                continue
            br = ctx.bracket_coords[gi, gj]
            lhs = (base.actions[gi] @ base.actions[gj] - base.actions[gj] @ base.actions[gi]) % p
            rhs = np.zeros_like(lhs)
            for z in np.nonzero(br)[0]:
                if int(z) not in base.actions:
                    raise BadCharacter("inducing part is not a subalgebra")
                rhs = (rhs + int(br[z]) * base.actions[int(z)]) % p
            if not np.array_equal(lhs, rhs):
                raise BadCharacter("base module violates bracket compatibility")
    for gi in base.gens:
        pw = linalg.matpow(base.actions[gi], p, p)
        pm = ctx.pmap_coords[gi]
        rhs = np.zeros_like(pw)
        for z in np.nonzero(pm)[0]:
            rhs = (rhs + int(pm[z]) * base.actions[int(z)]) % p
        rhs = (rhs + int(cc[gi]) * np.eye(base.dim, dtype=np.int64)) % p
        if not np.array_equal(pw, rhs):
            raise BadCharacter("base module violates the p-power rule")


def build_induced(chi: PChar, comp_indices, base: BaseModule, limit: int = DEFAULT_LIMIT) -> ModuleRep:
    """U_χ(g') ⊗_{U_χ(q)} base on the monomial basis over the complement.

    ``comp_indices`` (ordered as in the global basis) spans the complement
    subalgebra; ``base.gens`` spans the inducing subalgebra q.  The result is
    a module for the span of both.
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
    _check_base_axioms(ctx, chi, base)
    cc = chi.coords(ctx)
    tables = _normal_form_tables(alg, comp, tuple(int(cc[g]) for g in comp), tuple(base.gens))
    stack = np.stack([np.eye(base.dim, dtype=np.int64)]
                     + [np.asarray(base.actions[g], dtype=np.int64) % p for g in base.gens])
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
    if base.labels is not None:
        labels = []
        for a in all_exps:
            mono = " ".join(f"{ctx.meta[g].label}^{ai}" for g, ai in zip(comp, a) if ai) or "1"
            for bl in base.labels:
                labels.append(f"{mono} ⊗ {bl}")
    return ModuleRep(alg, chi, gens, actions, weight_tags=weight_tags,
                     grading_tags=grading_tags, tdeg_tags=tdeg_tags,
                     basis_labels=labels)


def _verma_base(chi: PChar, lam: LambdaWeight) -> BaseModule:
    alg = chi.alg
    ctx = get_context(alg)
    if not lambda_equations_hold(lam, chi):
        raise BadWeight("weight is not compatible with the character")
    values = {}
    for idx in ctx.torus_indices:
        meta = ctx.meta[idx]
        values[idx] = lam.value(meta.degree, meta.pos[0])
    for idx in ctx.nplus_indices:
        values[idx] = 0
    base = one_dim_base(ctx.torus_indices + ctx.nplus_indices, values)
    base.weight_tags = [lam.degree_zero]
    base.labels = ["1_" + lam.label()]
    return base


def build_baby_verma(chi: PChar, lam: LambdaWeight, limit: int = DEFAULT_LIMIT,
                     gamma=None) -> ModuleRep:
    """Borel induction of the one-dimensional weight module k_λ.

    With ``gamma`` a lattice weight lifting λ, the module carries the lattice
    grading with the highest vector in degree gamma.
    """
    alg = chi.alg
    ctx = get_context(alg)
    base = _verma_base(chi, lam)
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
    p = alg.p
    neg = LambdaWeight(tuple(tuple((-v) % p for v in row) for row in lam.values))
    values = {}
    for idx in ctx.torus_indices:
        meta = ctx.meta[idx]
        values[idx] = neg.value(meta.degree, meta.pos[0])
    for idx in ctx.nminus_indices:
        values[idx] = 0
    base = one_dim_base(ctx.torus_indices + ctx.nminus_indices, values)
    base.weight_tags = [neg.degree_zero]
    Mminus = build_induced(chi, ctx.nplus_indices, base, limit)
    out = Mminus.dual()
    return out


def build_torus_projective(chi: PChar, lam: LambdaWeight) -> ModuleRep:
    """Induction of k_λ from the degree-0 torus to the truncated torus with
    the character χ, dimension p^{m r}; at χ = 0 this is the projective
    cover of k_λ over the truncated torus."""
    alg = chi.alg
    ctx = get_context(alg)
    torus = ctx.torus_indices
    deg0 = [i for i in torus if ctx.meta[i].degree == 0]
    higher = [i for i in torus if ctx.meta[i].degree >= 1]
    values = {idx: lam.value(0, ctx.meta[idx].pos[0]) for idx in deg0}
    base = one_dim_base(deg0, values)
    base.weight_tags = [lam.degree_zero]
    base.labels = ["1_" + lam.label()]
    M = build_induced(chi, higher, base, limit=10 ** 9)
    # t-degree of each monomial in the h t^i generators
    degs = [ctx.meta[g].degree for g in higher]
    p = alg.p
    tdeg = []
    for t in range(p ** len(higher)):
        a = exps_of_rank(t, len(higher), p)
        tdeg.append(int(sum(ai * d for ai, d in zip(a, degs))))
    M.tdeg_tags = tdeg
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
    slots = {g: i for i, g in enumerate(Q.gens)}
    actions = {g: Q.action(slots[g]) for g in Q.gens}
    zero = np.zeros((Q.dim, Q.dim), dtype=np.int64)
    for idx in ctx.nplus_indices:
        actions[idx] = zero
    base = BaseModule(tuple(sorted(set(Q.gens) | set(ctx.nplus_indices))), actions, Q.dim,
                      weight_tags=Q.weight_tags, tdeg_tags=Q.tdeg_tags, labels=Q.basis_labels)
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
    ctx = get_context(eta.alg)
    p = eta.alg.p
    cc = eta.coords(ctx)
    D = ctx.dim
    # row for basis element i: μ(b_i) - sum_k P[i,k] μ(b_k) = η(b_i)
    A = (np.eye(D, dtype=np.int64) - ctx.pmap_coords) % p
    mu = linalg.solve(A, cc, p)
    return mu


def twist_module(M: ModuleRep, eta: PChar) -> ModuleRep:
    """Tensor with the one-dimensional module attached to η.

    η must kill the derived subalgebra; the generator actions shift by the
    scalars of the solved twist weight and the character moves to χ + η.
    """
    alg = M.alg
    ctx = get_context(alg)
    p = alg.p
    cc = eta.coords(ctx)
    for i in M.gens:
        for j in M.gens:
            br = ctx.bracket_coords[i, j]
            if int(np.dot(br, cc) % p):
                raise BadTwist("twisting functional does not vanish on the derived subalgebra")
    mu = solve_twist_weight(eta)
    for i in M.gens:
        for j in M.gens:
            br = ctx.bracket_coords[i, j]
            if int(np.dot(br, mu) % p):
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
    base = one_dim_base((), {})
    return build_induced(chi, list(range(ctx.dim)), base, limit)


@dataclass
class AxiomReport:
    bracket_failures: list
    power_failures: list

    @property
    def ok(self) -> bool:
        return not self.bracket_failures and not self.power_failures


def check_module_axioms(M: ModuleRep) -> AxiomReport:
    """Exact verification of bracket compatibility and the p-power rule."""
    alg = M.alg
    ctx = get_context(alg)
    p = alg.p
    cc = M.chi.coords(ctx)
    slots = {g: i for i, g in enumerate(M.gens)}
    bracket_failures = []
    power_failures = []
    acts = [M.action(i) for i in range(len(M.gens))]
    for a_slot, gi in enumerate(M.gens):
        for b_slot, gj in enumerate(M.gens):
            if gj <= gi:
                continue
            lhs = (linalg.matmul(acts[a_slot], acts[b_slot], p)
                   - linalg.matmul(acts[b_slot], acts[a_slot], p)) % p
            br = ctx.bracket_coords[gi, gj]
            rhs = np.zeros_like(lhs)
            for z in np.nonzero(br)[0]:
                z = int(z)
                if z not in slots:
                    bracket_failures.append((gi, gj, "bracket leaves the subalgebra"))
                    rhs = None
                    break
                rhs = (rhs + int(br[z]) * acts[slots[z]]) % p
            if rhs is not None and not np.array_equal(lhs, rhs):
                bracket_failures.append((gi, gj, "bracket compatibility fails"))
    eye = np.eye(M.dim, dtype=np.int64)
    for a_slot, gi in enumerate(M.gens):
        pw = linalg.matpow(acts[a_slot], p, p)
        pm = ctx.pmap_coords[gi]
        rhs = (int(cc[gi]) * eye) % p  # χ(x)^p = χ(x) over F_p
        for z in np.nonzero(pm)[0]:
            z = int(z)
            rhs = (rhs + int(pm[z]) * acts[slots[z]]) % p
        if not np.array_equal(pw, rhs):
            power_failures.append((gi, "p-power rule fails"))
    return AxiomReport(bracket_failures, power_failures)
