"""MeatAxe-style decomposition engine for exact module arithmetic.

Submodules are subspaces spanned by echelonised row bases; spinning closes a
seed set under the generator actions in batched BLAS steps.  Irreducibility
uses random algebra words w and irreducible polynomials f with
nullity(f(w)) = deg f: the shifts x - c (Holt & Rees), and the quadratics
that keep the test working when the endomorphism field is F_{p^2} and no
word has a nullity-one shift (Ivanyos & Lux).  If a kernel vector of f(w)
spins to everything, and a kernel vector of f(w)^T spins to everything
under the transposed actions, the module is irreducible; a proper spin on
either side yields an invariant subspace.  Isomorphism testing is the
standard-basis method driven by such a kernel of a shared word.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import get_context
from .errors import (AlgebraMismatch, BadCharacter, Inconclusive, InternalError,
                     NotGraded, NotWeightModule, TooLarge)
from .modrep import ModuleRep

WORD_BUDGET = 64       # random words per search before Inconclusive
SPIN_TRIES = 3         # kernel vectors spun when the kernel may be reducible
MAX_RETRIES = 4        # fresh searches per node before chop gives up
CHOP_LIMIT = 10 ** 6   # largest module chop accepts
HOM_GUARD = 2500       # largest dim S * dim M that hom_space solves for
SWEEP_ROWS = 64        # basis rows whose images _standard_basis takes in one product


# ---------------------------------------------------------------------------
# subspace machinery


def spin(stack: linalg.ActionStack, seeds, p: int) -> linalg.Echelon:
    """Smallest invariant subspace containing the seed row vectors.

    Each step takes the images of the whole frontier under every generator
    with one product against the stack.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    d = seeds.shape[-1]
    ech = linalg.Echelon(d, p)
    frontier = ech.add_rows(seeds.reshape(-1, d))
    while frontier.shape[0] and ech.dim < d:
        # generator-major rows (the images under A_1, then A_2, ...)
        frontier = ech.add_rows(stack.images(frontier).reshape(-1, d))
    return ech


def restrict_actions(stack: linalg.ActionStack, ech: linalg.Echelon,
                     p: int) -> linalg.ActionStack:
    """Actions on a spanned invariant subspace, in its row basis."""
    # row r of the coordinates of the images under A is column r of the
    # restricted action
    acts = [ech.coords(img).T for img in stack.images(ech.rows)]
    return linalg.ActionStack(acts or np.zeros((0, ech.dim, ech.dim), dtype=np.int64), p)


def quotient_actions(stack: linalg.ActionStack, ech: linalg.Echelon, p: int):
    """Actions on the quotient by a spanned invariant subspace, and the
    non-pivot columns whose unit vectors represent its basis."""
    free = np.ones(stack.d, dtype=bool)
    free[ech.pivots] = False
    npiv = np.flatnonzero(free).tolist()
    # column j of A is A e_j: the images of the representative vectors,
    # reduced modulo the span, as rows
    acts = [ech.residual(c)[:, npiv].T for c in stack.columns(npiv)]
    return linalg.ActionStack(acts or np.zeros((0, len(npiv), len(npiv)), dtype=np.int64),
                              p), npiv


def submodule_rep(M: ModuleRep, ech: linalg.Echelon) -> ModuleRep:
    return ModuleRep(M.alg, M.chi, M.gens, restrict_actions(M.stack, ech, M.alg.p))


def quotient_rep(M: ModuleRep, ech: linalg.Echelon) -> ModuleRep:
    acts, _ = quotient_actions(M.stack, ech, M.alg.p)
    return ModuleRep(M.alg, M.chi, M.gens, acts)


def invariant_subspace(M: ModuleRep, subalgebra_indices) -> np.ndarray:
    """Joint kernel of the actions of the given global basis elements."""
    slots = {g: i for i, g in enumerate(M.gens)}
    if not subalgebra_indices:
        return np.eye(M.dim, dtype=np.int64)
    return linalg.joint_kernel((M.action(slots[g]) for g in subalgebra_indices), M.alg.p)


# ---------------------------------------------------------------------------
# random words and the Norton test


def _random_word(rng, nacts: int, p: int):
    """Coefficients of a random word: one to three factors, each a vector of
    nacts action coefficients followed by a scalar.  Draws the factor count
    first, then one coefficient vector per factor."""
    nfac = int(rng.integers(1, 4))
    return [rng.integers(0, p, size=nacts + 1) for _ in range(nfac)]


def _eval_word(word, stack: linalg.ActionStack, p: int) -> np.ndarray:
    """Product over the factors of Σ c_i A_i + c_scalar I."""
    out = None
    for c in word:
        f = stack.combination(c[:-1])
        f.flat[::stack.d + 1] += int(c[-1])  # the diagonal
        f %= p
        out = f if out is None else linalg.matmul(out, f, p)
    return out


def _poly_at(f, w: np.ndarray, p: int) -> np.ndarray:
    """f(w) mod p for a polynomial f of degree at least one, given by its
    ascending coefficients (Horner's rule)."""
    eye = np.eye(w.shape[0], dtype=np.int64)
    out = (f[-1] * w + f[-2] * eye) % p
    for c in f[-3::-1]:
        out = (linalg.matmul(out, w, p) + c * eye) % p
    return out


def _shift_kernels(w: np.ndarray, p: int):
    """(f, kernel of f(w)) for the shifts f = x - c whose kernel is nonzero,
    smallest nullity first, then by c.  Shifting enormously raises the
    supply of nullity-one algebra elements compared to raw random words."""
    out = []
    for c in range(p):
        f = ((-c) % p, 1)
        ker = linalg.kernel(_poly_at(f, w, p), p)
        if ker.shape[0]:
            out.append((f, ker))
    out.sort(key=lambda t: t[1].shape[0])  # stable: c stays ascending
    return out


def _quadratic_kernels(w: np.ndarray, p: int):
    """(f, kernel of f(w)) for the monic irreducible quadratics f whose kernel
    has dimension exactly 2, produced one kernel at a time as they are read.

    Such a kernel is an irreducible module for the subalgebra generated by w,
    which re-enables the Norton certificate when the endomorphism field of
    the module is a quadratic extension (no nullity-one elements exist)."""
    eye = np.eye(w.shape[0], dtype=np.int64)
    w2 = None
    for a, b in itertools.product(range(p), repeat=2):
        if not all((c * c + a * c + b) % p for c in range(p)):
            continue  # x^2 + a x + b has a root
        if w2 is None:
            w2 = linalg.matmul(w, w, p)
        ker = linalg.kernel((w2 + a * w + b * eye) % p, p)
        if ker.shape[0] == 2:
            yield (b, a, 1), ker


def _norton_transpose(transposed, fw: np.ndarray, p: int):
    """Transpose side of the Norton test for a word polynomial f(w).

    Spins a kernel vector of f(w)^T under the transposed actions.  None when
    it spins to everything: with a kernel vector of f(w) that spins to
    everything as well, the module is certified irreducible.  Otherwise the
    annihilator of the transposed submodule, a proper invariant subspace.
    """
    d = fw.shape[0]
    kerT = linalg.kernel(fw.T, p)
    subT = spin(transposed, kerT[0], p)
    if subT.dim == d:
        return None
    ech = linalg.Echelon(d, p)
    ech.add_rows(linalg.kernel(subT.rows, p))
    return ech


def find_invariant_subspace(stack: linalg.ActionStack, p: int, rng):
    """A proper invariant subspace (echelon) or None when certified irreducible.

    Each random word w is searched in two stages of polynomials f: the
    shifts x - c, then, while no proper submodule is known, the irreducible
    quadratics.  A kernel with nullity(f(w)) = deg f is irreducible under w,
    so one of its vectors spins to the same submodule as any other, and when
    that spin and the transposed one are both full the module is certified
    irreducible (Norton's test).
    """
    d = stack.d
    if d <= 1:
        return None
    transposed = None
    best = None
    for _ in range(WORD_BUDGET):
        w = _eval_word(_random_word(rng, stack.k, p), stack, p)
        for stage in (_shift_kernels, _quadratic_kernels):
            for f, ker in stage(w, p):
                certifying = ker.shape[0] == len(f) - 1
                for v in ker[:1 if certifying else SPIN_TRIES]:
                    sub = spin(stack, v, p)
                    if sub.dim < d:
                        if d // 4 <= sub.dim <= 3 * d // 4:
                            return sub
                        if best is None or abs(sub.dim - d / 2) < abs(best.dim - d / 2):
                            best = sub
                if certifying and best is None:
                    if transposed is None:
                        transposed = stack.transposed()
                    return _norton_transpose(transposed, _poly_at(f, w, p), p)
                if best is not None and stage is _quadratic_kernels:
                    break  # no quadratic kernel is computed once a split is known
            if best is not None:
                return best
    # last resort: direct spins of random vectors (catches scalar-acting algebras)
    for _ in range(8):
        v = rng.integers(0, p, size=d)
        if not np.any(v):
            continue
        sub = spin(stack, v, p)
        if 0 < sub.dim < d:
            return sub
    raise Inconclusive("no certificate or splitting found within the word budget")


def _split_with_retries(stack: linalg.ActionStack, p: int, key: tuple):
    """find_invariant_subspace under rngs seeded (*key, attempt), retried
    after Inconclusive; returns (subspace or None, failed attempts)."""
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng((*key, attempt))
        try:
            return find_invariant_subspace(stack, p, rng), attempt
        except Inconclusive:
            pass
    raise Inconclusive(f"node of dim {stack.d} resisted {MAX_RETRIES} retries")


def is_irreducible(M: ModuleRep, seed: int = 0) -> bool:
    rng = np.random.default_rng((seed, 0xA11))
    return find_invariant_subspace(M.stack, M.alg.p, rng) is None


# ---------------------------------------------------------------------------
# characters


@dataclass
class CharacterTable:
    """Multiplicity function on weights (h*-tuples or lattice tuples)."""

    table: dict
    kind: str  # 'weight' or 'graded'

    @property
    def total(self) -> int:
        return sum(self.table.values())

    def to_json_dict(self):
        return {"kind": self.kind,
                "entries": [[list(k), v] for k, v in sorted(self.table.items())]}

    def __eq__(self, other):
        return isinstance(other, CharacterTable) and self.table == other.table


def weight_character(M: ModuleRep) -> CharacterTable:
    """Dimensions of the simultaneous eigenspaces of the degree-0 torus."""
    ctx = get_context(M.alg)
    p = M.alg.p
    slots = {g: i for i, g in enumerate(M.gens)}
    toral = [M.action(slots[g]) for g in ctx.torus_indices if ctx.meta[g].degree == 0]
    for A in toral:
        if not np.array_equal(linalg.matpow(A, p, p), A):
            raise NotWeightModule("toral action is not semisimple over F_p")
    spaces = [((), np.eye(M.dim, dtype=np.int64))]
    for A in toral:
        stack = linalg.ActionStack([A], p)
        new = []
        for tag, rows in spaces:
            sub = linalg.Echelon(M.dim, p)
            sub.add_rows(rows)
            (restr,) = restrict_actions(stack, sub, p)
            found = 0
            for c in range(p):
                K = linalg.kernel((restr - c * np.eye(sub.dim, dtype=np.int64)) % p, p)
                if K.shape[0]:
                    found += K.shape[0]
                    new.append((tag + (c,), linalg.matmul(K, sub.rows, p)))
            if found != sub.dim:
                raise NotWeightModule("toral action failed to split over F_p")
        spaces = new
    table = Counter()
    for tag, rows in spaces:
        table[tag] += rows.shape[0]
    return CharacterTable(dict(table), "weight")


def graded_character(M: ModuleRep) -> CharacterTable:
    if M.grading_tags is None:
        raise NotGraded("module carries no grading tags")
    return CharacterTable(dict(Counter(M.grading_tags)), "graded")


# ---------------------------------------------------------------------------
# isomorphism testing (standard basis method)


def _standard_basis(stack: linalg.ActionStack, v, p, schedule=None):
    """Spin one vector in deterministic order; (basis rows, schedule).

    The schedule lists the (basis row, generator slot) steps whose image was
    new.  Given a schedule to follow, returns None at the first basis row
    whose new images differ from the schedule's.  The images of the basis
    rows not yet swept, up to SWEEP_ROWS of them, come from one product
    against the stack.
    """
    d = stack.d
    ech = linalg.Echelon(d, p)
    basis = [np.asarray(v, dtype=np.int64) % p]
    ech.add_rows(basis[0])
    want = None
    if schedule is not None:
        want = {}
        for i, gslot in schedule:
            want.setdefault(i, []).append(gslot)
    steps = []
    i = swept = 0
    # once the basis spans everything, no later image is new
    while i < len(basis) and ech.dim < d:
        if i == swept:
            rows = np.stack(basis[i:i + SWEEP_ROWS])
            batch = stack.images(rows)
            first, swept = i, i + rows.shape[0]
        imgs = batch[:, i - first]
        res = ech.residual(imgs)
        # an image is new when its residual is independent of the residuals
        # of the earlier images: the pivot columns of the nonzero residuals
        # as columns (a lone nonzero residual is its own pivot)
        nz = np.flatnonzero(res.any(axis=1))
        new = nz.tolist() if nz.size < 2 else nz[linalg.rref(res[nz].T, p)[1]].tolist()
        if want is not None and new != want.get(i, []):
            return None
        for gslot in new:
            basis.append(imgs[gslot])
            steps.append((i, gslot))
        if new:
            ech.add_rows(res[new])
        i += 1
    if want is not None and len(steps) != len(schedule):
        return None
    return np.stack(basis), steps


def _intertwines(theta, stackM: linalg.ActionStack, stackN: linalg.ActionStack, p) -> bool:
    """θ ρ_M(g) = ρ_N(g) θ for every generator g, one generator at a time:
    θ A_i against B_i θ, the images of the columns of θ under B_i."""
    return all(np.array_equal(stackM.premultiplied(theta, i), stackN.image(theta.T, i).T)
               for i in range(stackM.k))


def _match_standard_basis(sbM, schedule, seeds, stackM, stackN, p):
    """(True, θ) for the first seed vector of N whose standard basis follows
    M's schedule and yields an intertwiner θ, else (False, None)."""
    for u in seeds:
        replay = _standard_basis(stackN, u, p, schedule)
        if replay is None:
            continue
        theta = linalg.matmul(replay[0].T, linalg.inv(sbM.T, p), p)
        if _intertwines(theta, stackM, stackN, p):
            return True, theta
    return False, None


def are_isomorphic(M: ModuleRep, N: ModuleRep, seed: int = 0):
    """(flag, witness): witness is an invertible intertwiner when flag is True.

    Conclusive for modules generated by a vector of a kernel with
    nullity(f(w)) = deg f (all simples, baby Vermas and their duals): an
    isomorphism maps that kernel onto the kernel of f at the same word in N,
    so trying one vector per line of the latter decides.  Raises
    Inconclusive if no usable word is found within the budget.
    """
    if M.alg != N.alg:
        raise AlgebraMismatch("modules live over different algebras")
    if M.chi != N.chi:
        raise BadCharacter("isomorphism testing requires equal characters")
    if M.dim != N.dim:
        return False, None
    if M.dim == 0:
        return True, np.zeros((0, 0), dtype=np.int64)
    if M.central_scalars != N.central_scalars:
        return False, None
    p = M.alg.p
    if all(np.array_equal(M.action(i), N.action(i)) for i in range(len(M.gens))):
        return True, np.eye(M.dim, dtype=np.int64)
    stackM, stackN = M.stack, N.stack
    rng = np.random.default_rng((seed, 0x150))
    for _ in range(WORD_BUDGET):
        word = _random_word(rng, stackM.k, p)
        wM = _eval_word(word, stackM, p)
        wN = None
        for f, kerM in itertools.chain(_shift_kernels(wM, p), _quadratic_kernels(wM, p)):
            if kerM.shape[0] != len(f) - 1:
                continue
            sbM, schedule = _standard_basis(stackM, kerM[0], p)
            if sbM.shape[0] != M.dim:
                continue  # kernel vector does not generate; try another f
            if wN is None:
                wN = _eval_word(word, stackN, p)
            kerN = linalg.kernel(_poly_at(f, wN, p), p)
            if kerN.shape[0] != kerM.shape[0]:
                return False, None
            return _match_standard_basis(sbM, schedule, _line_representatives(kerN, p),
                                         stackM, stackN, p)
    raise Inconclusive("no generating word kernel found")


# ---------------------------------------------------------------------------
# composition series


@dataclass
class SimpleCatalog:
    """Append-only catalog of pairwise non-isomorphic simple modules."""

    entries: list = field(default_factory=list)  # (id, rep, invariants)
    seed: int = 0

    def match(self, rep: ModuleRep, label: str | None = None) -> str:
        # the invariants that are_isomorphic compares before its exact test
        inv = (rep.dim, rep.central_scalars)
        for sid, existing, existing_inv in self.entries:
            if existing_inv != inv or existing.chi != rep.chi:
                continue
            flag, _ = are_isomorphic(existing, rep, seed=self.seed)
            if flag:
                return sid
        sid = label or f"S{len(self.entries)}(dim {rep.dim})"
        self.entries.append((sid, rep, inv))
        return sid

    def get(self, sid: str) -> ModuleRep:
        for s, rep, _i in self.entries:
            if s == sid:
                return rep
        raise KeyError(sid)


@dataclass
class CompositionSeries:
    factors: list              # (simpleId, multiplicity), sorted by id
    dims: dict                 # simpleId -> dimension
    total_dim: int
    seed: int
    retries: int

    def multiplicity(self, sid: str) -> int:
        for s, m in self.factors:
            if s == sid:
                return m
        return 0

    def to_json_dict(self):
        return {"factors": [{"label": s, "dim": self.dims[s], "mult": m}
                            for s, m in self.factors],
                "seed": self.seed, "retries": self.retries}


def chop(M: ModuleRep, seed: int = 0,
         catalog: SimpleCatalog | None = None) -> CompositionSeries:
    """Full composition series by recursive splitting.

    Deterministic given the seed; factors are matched into the catalog (a
    fresh one if none is supplied).  Σ mult · dim always equals dim M.
    """
    if M.dim > CHOP_LIMIT:
        raise TooLarge(f"chop limit {CHOP_LIMIT} exceeded by dim {M.dim}")
    catalog = catalog if catalog is not None else SimpleCatalog(seed=seed)
    p = M.alg.p
    leaves = []
    retries = 0
    pending = [M.stack]
    node = 0
    while pending:
        acts = pending.pop()
        node += 1
        if acts.d == 0:
            continue
        sub, failed = _split_with_retries(acts, p, (seed, node))
        retries += failed
        if sub is None:
            leaves.append(acts)
        else:
            pending.append(restrict_actions(acts, sub, p))
            qacts, _ = quotient_actions(acts, sub, p)
            pending.append(qacts)
    counts = Counter()
    for acts in leaves:
        rep = ModuleRep(M.alg, M.chi, M.gens, acts)
        counts[catalog.match(rep)] += 1
    dims = {sid: catalog.get(sid).dim for sid in counts}
    total = sum(dims[s] * m for s, m in counts.items())
    if total != M.dim:
        raise InternalError(f"composition series dimension mismatch: {total} != {M.dim}")
    return CompositionSeries(sorted(counts.items()), dims, M.dim, seed, retries)


# ---------------------------------------------------------------------------
# socles and heads


def find_simple_submodule(M: ModuleRep, seed: int = 0) -> linalg.Echelon:
    """Descend through proper submodules until an irreducible one remains."""
    p = M.alg.p
    acts = M.stack
    d = M.dim
    basis = linalg.Echelon(d, p)
    basis.add_rows(np.eye(d, dtype=np.int64))
    level = 0
    while True:
        sub, _ = _split_with_retries(acts, p, (seed, 0x50C, level))
        if sub is None:
            return basis
        acts = restrict_actions(acts, sub, p)
        basis_rows = linalg.matmul(sub.rows, basis.rows, p)
        basis = linalg.Echelon(d, p)
        basis.add_rows(basis_rows)
        level += 1


def head(M: ModuleRep, seed: int = 0) -> ModuleRep:
    """Unique simple quotient of a module with simple head.

    Computed as M / S^⊥ where S is the (unique) simple submodule of the
    dual; exact quotient construction, no homomorphism solving.
    """
    Md = M.dual()
    S = find_simple_submodule(Md, seed=seed)
    if S.dim == M.dim:
        return M
    perp = linalg.kernel(S.rows, M.alg.p)
    ech = linalg.Echelon(M.dim, M.alg.p)
    ech.add_rows(perp)
    return quotient_rep(M, ech)


def hom_space(S: ModuleRep, M: ModuleRep):
    """Basis of Hom(S, M) as matrices theta with theta ρ_S(g) = ρ_M(g) theta."""
    if S.dim * M.dim > HOM_GUARD:
        raise TooLarge("hom-space solve exceeds the size guard")
    # theta is the (S.dim, M.dim) array of its unknowns, transposed; one
    # constraint block per generator, built as the joint kernel reads it
    eyeS = np.eye(S.dim, dtype=np.int64)
    eyeM = np.eye(M.dim, dtype=np.int64)
    blocks = (np.kron(S.action(i).T, eyeM) - np.kron(eyeS, M.action(i))
              for i in range(len(M.gens)))
    return [vec.reshape(S.dim, M.dim).T for vec in linalg.joint_kernel(blocks, M.alg.p)]


def socle_rows(M: ModuleRep, seed: int = 0) -> np.ndarray:
    """Row basis of the socle: sum of images of all maps from the simples."""
    cat = SimpleCatalog(seed=seed)
    series = chop(M, seed=seed, catalog=cat)
    rows = []
    p = M.alg.p
    for sid, _m in series.factors:
        S = cat.get(sid)
        for theta in hom_space(S, M):
            for col in theta.T:
                if np.any(col):
                    rows.append(col)
    ech = linalg.Echelon(M.dim, p)
    if rows:
        ech.add_rows(np.stack(rows))
    return ech.rows


def head_general(M: ModuleRep, seed: int = 0) -> ModuleRep:
    """M / rad(M) via the socle of the dual; guarded to moderate dimensions."""
    rows = socle_rows(M.dual(), seed=seed)
    perp = linalg.kernel(rows, M.alg.p) if rows.shape[0] else np.zeros((0, M.dim), dtype=np.int64)
    ech = linalg.Echelon(M.dim, M.alg.p)
    if rows.shape[0] < M.dim:
        ech.add_rows(perp)
    return quotient_rep(M, ech)


# ---------------------------------------------------------------------------
# explicit intertwiners out of baby Vermas


def highest_weight_vectors(N: ModuleRep, lam) -> np.ndarray:
    """Joint kernel rows: vectors killed by the positive part on which every
    toral basis element acts by the given weight (all t-degrees)."""
    ctx = get_context(N.alg)
    slots = {g: i for i, g in enumerate(N.gens)}
    eye = np.eye(N.dim, dtype=np.int64)
    vals = lam.coords(ctx)

    def mats():
        for g in ctx.nplus_indices:
            yield N.action(slots[g])
        for idx in ctx.torus_indices:
            yield N.action(slots[idx]) - vals[idx] * eye

    return linalg.joint_kernel(mats(), N.alg.p)


def _line_representatives(rows: np.ndarray, p: int, cap: int = 1000):
    """One representative per line of the row span (small spaces only).

    Coefficient vectors c (of rows[0], rows[1], ...) are visited in the
    order of the base-p number sum c_i p^i, and the one whose first nonzero
    entry is 1 stands for its line.
    """
    k = rows.shape[0]
    total = min((p ** k - 1) // (p - 1), cap)
    reps = []
    for rev in itertools.product(range(p), repeat=k):
        digits = rev[::-1]
        lead = next((c for c in digits if c), 0)
        if lead != 1:
            continue
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for c, row in zip(digits, rows):
            if c:
                v = (v + c * row) % p
        reps.append(v)
        if len(reps) >= total:
            break
    return reps


def verma_intertwiner(Z: ModuleRep, N: ModuleRep, lam):
    """Invertible intertwiner Z_χ(λ) → N built from a highest vector of N.

    A map out of the induced module is freely determined by the image w of
    its highest vector; the columns are ρ_N(monomial)·w computed along the
    monomial recursion.  Every line of the highest-vector space of N is
    tried, so a None return certifies that no isomorphism exists whenever
    that space is within the enumeration cap.
    """
    if Z.dim != N.dim or Z.alg != N.alg or Z.chi != N.chi:
        return None
    ctx = get_context(Z.alg)
    p = Z.alg.p
    comp = ctx.nminus_indices
    k = len(comp)
    if p ** k != Z.dim:
        return None  # not a plain Borel-induced basis
    slots = {g: i for i, g in enumerate(N.gens)}
    comp_slots = [slots[g] for g in comp]
    hw = highest_weight_vectors(N, lam)
    if hw.shape[0] == 0:
        return None
    for w in _line_representatives(hw, p):
        cols = _verma_columns(N.stack, comp_slots, w, p)
        if linalg.rank(cols, p) < N.dim:
            continue  # not invertible
        if _intertwines(cols, Z.stack, N.stack, p):
            return cols
    return None


def _verma_columns(stack: linalg.ActionStack, comp_slots, w, p: int) -> np.ndarray:
    """Matrix whose column of rank r is ρ(u^a)·w for a = exps_of_rank(r).

    The ranks whose first nonzero exponent is a_j = t form the run
    [t p^(k-1-j), (t+1) p^(k-1-j)), and that run is A_j times the run before
    it (a_j lowered by one), so the columns take k(p - 1) products.
    """
    k = len(comp_slots)
    rows = np.zeros((p ** k, stack.d), dtype=np.int64)
    rows[0] = w
    for j in range(k - 1, -1, -1):
        s = p ** (k - 1 - j)
        for t in range(1, p):
            rows[t * s:(t + 1) * s] = stack.image(rows[(t - 1) * s:t * s], comp_slots[j])
    return np.ascontiguousarray(rows.T)
