"""Closed-form layer: partition counts, multiplicity and Cartan formulas,
simple-module classification for homogeneous characters, Kac-Weisfeiler
scans and block structure.  Every formula value is meant to be compared
against an exact decomposition computed elsewhere; evaluators never consult
the oracles they are checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraDescriptor, CurrentElement, get_context, is_regular
from .errors import (BadCharacter, FormulaDomainError, Inconclusive,
                     InternalError, NeedsFieldExtension, OutOfScope, TooLarge)
from .meataxe import (SimpleCatalog, are_isomorphic, chop, head, hom_space,
                      is_irreducible)
from .modrep import (DEFAULT_LIMIT, LambdaWeight, build_baby_verma,
                     build_regular_module, build_Zproj, enumerate_lambda)
from .pchar import (PChar, pchar_from_element, random_pchar, stabilizer_dim,
                    standard_levi_form, support_degree, truncate_pchar)


# ---------------------------------------------------------------------------
# generalized Kostant partition function


@dataclass
class PartitionTable:
    """p_m on the canonical weight tuples, with its defining parameters."""

    alg: AlgebraDescriptor
    table: dict

    def __call__(self, gamma) -> int:
        ctx = get_context(self.alg)
        return self.table.get(ctx.roots.canonical_weight(gamma), 0)

    @property
    def total_mass(self) -> int:
        return sum(self.table.values())

    def support(self):
        return [g for g, v in self.table.items() if v]


def kostant_table(alg: AlgebraDescriptor) -> PartitionTable:
    """DP convolution: count tuples (m_{i,α}), 1<=i<=m, 0<=m_{i,α}<p with
    Σ α·m_{i,α} = γ."""
    ctx = get_context(alg)
    roots = [ctx.roots.root_tuple(ij) for ij in ctx.roots.pos_roots]
    p, m = alg.p, alg.m
    table = {ctx.roots.canonical_weight((0,) * alg.n): 1}
    for _layer in range(m):
        for alpha in roots:
            new = Counter()
            for gamma, cnt in table.items():
                acc = gamma
                for mult in range(p):
                    if mult:
                        acc = ctx.roots.weight_add(acc, alpha)
                    new[acc] += cnt
            table = dict(new)
    return PartitionTable(alg, table)


def _same_coset_mod_p_lattice(alg: AlgebraDescriptor, a, b) -> bool:
    """Whether a - b lies in p·X*(T) (for sl: modulo the all-ones line)."""
    diff = [x - y for x, y in zip(a, b)]
    if alg.kind == "gl":
        return all(d % alg.p == 0 for d in diff)
    # sl: a - b ≡ c·(1,...,1) mod p for some constant c
    res = [d % alg.p for d in diff]
    return len(set(res)) == 1


def pm_shift_sum(gamma, alg: AlgebraDescriptor, table: PartitionTable | None = None):
    """Exact lattice sum Σ_δ p_m(γ - pδ) with both formula constants.

    Returns (value, paper_constant, z_corrected_constant); either constant
    may be None when its exponent is negative.
    """
    table = table or kostant_table(alg)
    ctx = get_context(alg)
    gamma = ctx.roots.canonical_weight(gamma)
    value = sum(cnt for sig, cnt in table.table.items()
                if _same_coset_mod_p_lattice(alg, gamma, sig))
    e_paper = alg.m * alg.num_pos_roots - alg.rank
    e_corr = e_paper + alg.dim_z
    paper = alg.p ** e_paper if e_paper >= 0 else None
    corr = alg.p ** e_corr if e_corr >= 0 else None
    if paper is None and corr is None:
        raise FormulaDomainError("both shift-sum exponents are negative")
    return value, paper, corr


# ---------------------------------------------------------------------------
# l-constants and the multiplicity formulas


@dataclass
class LConstants:
    """Total multiplicity of each restricted simple across the order-0
    baby Vermas, with the dimensions of the simples."""

    alg: AlgebraDescriptor               # order-0 descriptor
    values: dict                          # weight tuple -> l
    dims: dict                            # weight tuple -> dim L
    catalog: SimpleCatalog
    label_of: dict                        # weight tuple -> catalog id

    def mass(self) -> int:
        return sum(l * self.dims[w] for w, l in self.values.items())


def l_constants(alg: AlgebraDescriptor, seed: int = 0) -> LConstants:
    """Chop every restricted baby Verma of the order-0 algebra."""
    alg0 = alg.at_order(0)
    chi0 = PChar.zero(alg0)
    lams = enumerate_lambda(chi0)
    cat = SimpleCatalog(seed=seed)
    label_of = {}
    vermas = [build_baby_verma(chi0, lam) for lam in lams]
    for lam, Z in zip(lams, vermas):
        label_of[lam.degree_zero] = cat.match(head(Z, seed=seed), f"L{lam.degree_zero}")
    values = Counter()
    for Z in vermas:
        series = chop(Z, seed=seed, catalog=cat)
        for sid, mult in series.factors:
            values[sid] += mult
    by_weight = {}
    dims = {}
    for w, sid in label_of.items():
        by_weight[w] = values[sid]
        dims[w] = cat.get(sid).dim
    return LConstants(alg0, by_weight, dims, cat, label_of)


def central_character(alg: AlgebraDescriptor, lam: LambdaWeight):
    """Values of λ on a basis of the centre of g (empty tuple for sl)."""
    if alg.kind == "sl":
        return ()
    return (sum(lam.degree_zero) % alg.p,)


def verma_mult_formula(lam: LambdaWeight, mu: LambdaWeight, alg: AlgebraDescriptor,
                       lc: LConstants, z_correction: bool = False) -> int:
    """Composition multiplicity of the μ-simple in the λ-baby-Verma."""
    if central_character(alg, lam) != central_character(alg, mu):
        return 0
    exp = alg.m * alg.num_pos_roots - alg.rank
    if z_correction:
        exp += alg.dim_z
    if exp < 0:
        raise FormulaDomainError("formula exponent negative (pure torus?)")
    return lc.values[mu.degree_zero] * alg.p ** exp


def cartan_formula(lam: LambdaWeight, mu: LambdaWeight, alg: AlgebraDescriptor,
                   lc: LConstants, z_correction: bool = False) -> int:
    """Composition multiplicity of the μ-simple in the λ-projective cover."""
    if central_character(alg, lam) != central_character(alg, mu):
        return 0
    exp = alg.m * alg.dim_g - alg.rank
    if z_correction:
        exp += alg.dim_z
    if exp < 0:
        raise FormulaDomainError("formula exponent negative (pure torus?)")
    return lc.values[lam.degree_zero] * lc.values[mu.degree_zero] * alg.p ** exp


@dataclass
class CartanMatrix:
    """Square table of projective-cover multiplicities over the weight set."""

    weights: list
    entries: np.ndarray
    provenance: str  # 'formula' or 'oracle'

    def to_tsv(self) -> str:
        lines = ["\t".join([""] + [str(w) for w in self.weights])]
        for w, row in zip(self.weights, self.entries):
            lines.append("\t".join([str(w)] + [str(int(v)) for v in row]))
        return "\n".join(lines)


def cartan_matrix_formula(alg: AlgebraDescriptor, lc: LConstants,
                          z_correction: bool = False) -> CartanMatrix:
    weights = sorted(lc.values)
    n = len(weights)
    out = np.zeros((n, n), dtype=np.int64)
    for i, w1 in enumerate(weights):
        for j, w2 in enumerate(weights):
            out[i, j] = cartan_formula(LambdaWeight.from_degree_zero(w1, alg),
                                       LambdaWeight.from_degree_zero(w2, alg),
                                       alg, lc, z_correction)
    return CartanMatrix(weights, out, "formula")


# ---------------------------------------------------------------------------
# classification of simples for homogeneous standard-Levi characters


@dataclass
class SimpleClassification:
    levi: "LeviData"
    classes: list          # list of lists of LambdaWeight
    class_count: int
    predicted_count: int


def classify_simples_homogeneous(chi: PChar, seed: int = 0) -> SimpleClassification:
    """Partition of Λ_χ by restriction to the centre of the Levi of the
    standard-Levi form of the (degree-reduced) character."""
    alg = chi.alg
    k, hom = support_degree(chi)
    if hom is None or chi.is_zero():
        raise OutOfScope("character must be homogeneous and nonzero")
    psi = truncate_pchar(chi, hom) if hom < alg.m else chi
    alg_red = psi.alg
    e = psi.dual
    if any(d != 0 for d in e.support_degrees()):
        raise OutOfScope("reduced character is not dual to a degree-0 element")
    levi = standard_levi_form(e)  # raises NotNilpotent for non-nilpotent input
    ctx = get_context(alg_red)
    lams = enumerate_lambda(psi)
    buckets = {}
    for lam in lams:
        key = tuple(_eval_on_diagonal(ctx, lam, zmat) for zmat in levi.z_levi_basis)
        buckets.setdefault(key, []).append(lam)
    classes = [buckets[k] for k in sorted(buckets)]
    predicted = alg_red.p ** levi.dim_z_levi
    return SimpleClassification(levi, classes, len(classes), predicted)


def _eval_on_diagonal(ctx, lam: LambdaWeight, dmat: np.ndarray) -> int:
    """Evaluate a weight on a degree-0 diagonal element of the algebra."""
    x = CurrentElement.from_matrix(ctx.alg, dmat, 0)
    return int(np.dot(ctx.coords(x), lam.coords(ctx))) % ctx.alg.p


# ---------------------------------------------------------------------------
# blocks


@dataclass
class BlockPartition:
    blocks: list            # list of lists of weight tuples
    predicted_remark: int   # p^{(m+1) dim z(g)}
    z_classes: int          # number of central-character classes p^{dim z(g)}

    @property
    def count(self) -> int:
        return len(self.blocks)


def blocks(alg: AlgebraDescriptor, seed: int = 0, limit: int = 10 ** 6,
           weights_subset=None) -> BlockPartition:
    """Linkage-graph blocks of the restricted algebra at order m.

    Weights are linked when their baby Vermas share a composition factor;
    blocks are the connected components.  ``weights_subset`` restricts the
    graph to a slice (weights are compared globally regardless).
    """
    chi = PChar.zero(alg)
    lams = enumerate_lambda(chi)
    if weights_subset is not None:
        chosen = [l for l in lams if l.degree_zero in set(weights_subset)]
    else:
        chosen = lams
    cat = SimpleCatalog(seed=seed)
    factor_sets = {}
    for lam in chosen:
        Z = build_baby_verma(chi, lam, limit=limit)
        series = chop(Z, seed=seed, catalog=cat)
        factor_sets[lam.degree_zero] = {sid for sid, _ in series.factors}
    # union-find on shared factors
    parent = {w: w for w in factor_sets}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    keys = list(factor_sets)
    for i, w1 in enumerate(keys):
        for w2 in keys[i + 1:]:
            if factor_sets[w1] & factor_sets[w2]:
                parent[find(w1)] = find(w2)
    groups = {}
    for w in keys:
        groups.setdefault(find(w), []).append(w)
    blocks_list = sorted(groups.values())
    return BlockPartition(blocks_list, alg.p ** ((alg.m + 1) * alg.dim_z),
                          alg.p ** alg.dim_z)


# ---------------------------------------------------------------------------
# Kac-Weisfeiler scans


@dataclass
class KWReport:
    config: str
    samples: int
    seed: int
    kw1_bound: int
    max_simple_dim: int
    kw1_attained: bool
    kw2_violations: list
    checked_simple_counts: Counter = field(default_factory=Counter)
    nonsplit_dims: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def kw_defect(chi: PChar) -> int:
    return chi.alg.dim_gm - stabilizer_dim(chi)


def _endo_degree(S):
    """Dimension of the endomorphism field of a simple module, or None."""
    try:
        return len(hom_space(S, S))
    except TooLarge:
        return None


def _simple_factors_via_regular(chi: PChar, seed: int, limit: int):
    U = build_regular_module(chi, limit=limit)
    cat = SimpleCatalog(seed=seed)
    series = chop(U, seed=seed, catalog=cat)
    return [cat.get(sid) for sid, _ in series.factors]


def _simple_factors_via_vermas(chi: PChar, seed: int, limit: int):
    """Verma composition factors (each is a genuine simple), or None."""
    ctx = get_context(chi.alg)
    if not chi.vanishes_on(ctx.nplus_indices):
        return None
    try:
        lams = enumerate_lambda(chi)
    except (BadCharacter, NeedsFieldExtension):
        return None
    out = []
    cat = SimpleCatalog(seed=seed)
    try:
        for lam in lams:
            Z = build_baby_verma(chi, lam, limit=limit)
            series = chop(Z, seed=seed, catalog=cat)
            out.extend(cat.get(sid) for sid, _ in series.factors)
    except TooLarge:
        return None
    return out


def kw_scan(alg: AlgebraDescriptor, samples: int, seed: int,
            regular_limit: int = 800, limit: int = DEFAULT_LIMIT,
            full_chop_budget: int = 3) -> KWReport:
    """Sampled verification of the two Kac-Weisfeiler statements.

    For each sampled character the orbit defect is computed exactly.  Simple
    modules are enumerated through the χ-regular module when its dimension
    (after degree reduction) is within ``regular_limit`` (130 once the
    budget of full chops is spent), else through baby Verma factors when
    the character admits them; no module above ``limit`` is built.  Every
    constructed simple is checked for the divisibility statement.  Simples
    over a larger endomorphism field split after base change, so their
    dimensions are divided by the verified endomorphism degree before the
    maximal-dimension comparison; the divisibility check applies to them
    unchanged.
    """
    report = KWReport(alg.label(), samples, seed,
                      alg.p ** ((alg.m + 1) * alg.num_pos_roots), 0, False, [])
    full_chops = 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        chi = random_pchar(alg, rng)
        defect = kw_defect(chi)
        if defect % 2:
            report.notes.append((i, "odd defect"))
            continue
        divisor = alg.p ** (defect // 2)
        # reduce by truncation degree as far as the support allows
        k, _hom = support_degree(chi)
        psi = truncate_pchar(chi, k) if k < alg.m and not chi.is_zero() else chi
        factors = None
        route = None
        try:
            size = psi.alg.p ** get_context(psi.alg).dim
            if size <= min(regular_limit, limit) and full_chops < full_chop_budget:
                factors = _simple_factors_via_regular(psi, seed, limit)
                route = "regular"
                full_chops += 1
            elif size <= min(130, limit):
                factors = _simple_factors_via_regular(psi, seed, limit)
                route = "regular"
            else:
                factors = _simple_factors_via_vermas(psi, seed, limit)
                route = "verma" if factors is not None else None
        except Inconclusive:
            report.notes.append((i, "decomposition inconclusive"))
            continue
        if factors is None:
            report.notes.append((i, "no construction route at this scale"))
            continue
        report.checked_simple_counts[route] += len(factors)
        for S in {id(S): S for S in factors}.values():
            d = S.dim
            if d % divisor:
                report.kw2_violations.append((i, d, divisor))
            if d <= report.kw1_bound:
                report.max_simple_dim = max(report.max_simple_dim, d)
            else:
                deg = _endo_degree(S)
                if deg is None or deg == 1:
                    # genuinely too large: a KW1 violation
                    report.max_simple_dim = max(report.max_simple_dim, d)
                else:
                    if d % deg:
                        raise InternalError("endomorphism degree does not divide the dimension")
                    report.nonsplit_dims.append((d, deg))
                    report.max_simple_dim = max(report.max_simple_dim, d // deg)
    # attainment witness: a regular toral character with no top layer
    wit_rng = np.random.default_rng((seed, 0xA77A))
    wit = _regular_semisimple_borel_witness(alg, wit_rng)
    if wit is not None:
        lam = enumerate_lambda(wit)[0]
        Z = build_baby_verma(wit, lam, limit=limit)
        if Z.dim == report.kw1_bound and is_irreducible(Z, seed=seed):
            report.kw1_attained = True
            report.max_simple_dim = max(report.max_simple_dim, Z.dim)
    return report


def _regular_semisimple_borel_witness(alg: AlgebraDescriptor, rng):
    """κ-dual of a toral element with regular degree-0 part and no top layer."""
    ctx = get_context(alg)
    for _ in range(200):
        coeffs = np.zeros((alg.m + 1, alg.n, alg.n), dtype=np.int64)
        for d in range(alg.m):  # leave the top layer empty: keeps Λ_χ rational
            diag = rng.integers(0, alg.p, size=alg.n)
            if alg.kind == "sl":
                diag[-1] = (-int(diag[:-1].sum())) % alg.p
            np.fill_diagonal(coeffs[d], diag)
        x = CurrentElement(alg, coeffs)
        if is_regular(x):
            return pchar_from_element(x)
    return None


# ---------------------------------------------------------------------------
# semisimple-character audit


@dataclass
class SemisimpleAuditReport:
    simple_count: int
    expected_count: int
    simple_dims: list
    expected_dim: int
    pairwise_distinct: bool
    all_simple: bool
    dimension_audit_ok: bool
    projective_dim: int | None = None
    expected_projective_dim: int | None = None
    projective_factors: list | None = None
    projective_skip: str | None = None   # why projective_dim is None

    @property
    def ok(self) -> bool:
        flags = [self.simple_count == self.expected_count,
                 all(d == self.expected_dim for d in self.simple_dims),
                 self.pairwise_distinct, self.all_simple, self.dimension_audit_ok]
        if self.projective_dim is not None:
            flags.append(self.projective_dim == self.expected_projective_dim)
        return all(flags)


def semisimple_character_audit(alg: AlgebraDescriptor, seed: int = 0,
                               limit: int = DEFAULT_LIMIT) -> SemisimpleAuditReport:
    """Audit the module structure at a distinguished regular toral character.

    Uses χ dual to a regular degree-0 toral element: Borel induction of the
    compatible weights gives modules of the predicted dimension which are
    verified simple and pairwise non-isomorphic; the torus projective covers
    induce to modules whose composition series realise the projective
    dimension count.  When that induced module is too large or cannot be
    built, ``projective_skip`` says why.
    """
    h_reg = _regular_degree0_toral(alg)
    if h_reg is None:
        raise OutOfScope("no regular degree-0 toral element for this descriptor")
    chi = pchar_from_element(h_reg)
    lams = enumerate_lambda(chi)
    mods = [build_baby_verma(chi, lam, limit=limit) for lam in lams]
    expected_dim = alg.p ** ((alg.m + 1) * alg.num_pos_roots)
    all_simple = all(is_irreducible(Z, seed=seed) for Z in mods)
    distinct = True
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if are_isomorphic(mods[i], mods[j], seed=seed)[0]:
                distinct = False
    audit = (expected_dim ** 2) * (alg.p ** ((alg.m + 1) * alg.rank)) == alg.p ** alg.dim_gm
    report = SemisimpleAuditReport(len(mods), alg.p ** alg.rank,
                                   [Z.dim for Z in mods], expected_dim,
                                   distinct, all_simple, audit)
    # projective side: induce the χ-compatible torus projective cover
    try:
        P = build_Zproj(chi, lams[0], limit=limit)
    except (TooLarge, BadCharacter) as ex:
        report.projective_skip = f"induced projective not built: {ex}"
        return report
    series = chop(P, seed=seed)
    report.projective_dim = P.dim
    report.expected_projective_dim = alg.p ** (
        (alg.m + 1) * (alg.dim_g + alg.rank) // 2 - alg.rank)
    report.projective_factors = series.factors
    return report


def _regular_degree0_toral(alg: AlgebraDescriptor):
    # distinct diagonal entries mod p give a regular toral element when possible
    diag = list(range(alg.n))
    mat = np.diag(np.array(diag, dtype=np.int64) % alg.p)
    if alg.kind == "sl":
        tr = int(np.trace(mat)) % alg.p
        mat[-1, -1] = (mat[-1, -1] - tr) % alg.p
        if len({int(mat[i, i]) % alg.p for i in range(alg.n)}) < alg.n:
            # adjust to regain distinctness where p allows
            for c in range(alg.p):
                cand = mat.copy()
                cand[-1, -1] = c
                tr2 = int(np.trace(cand)) % alg.p
                cand[0, 0] = (cand[0, 0] - tr2) % alg.p
                if len({int(cand[i, i]) for i in range(alg.n)}) == alg.n:
                    mat = cand
                    break
    x = CurrentElement.from_matrix(alg, mat, 0)
    return x if is_regular(x) else None

