"""Verification suites: each one checks a family of closed claims for one
algebra configuration against exact computations, and emits a SuiteReport.

The anchor strings attached to every check quote the exact statement being
certified, so a report line is self-contained.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (AlgebraDescriptor, CurrentElement, bracket,
                      bracket_coeffs, centralizer_dim_coeffs, classify_element,
                      get_context, is_nilpotent, is_nilpotent_coeffs,
                      jordan_decompose, kappa_coeffs, p_map_coeffs,
                      random_element)
from .errors import InternalError, InvalidDescriptor, TooLarge
from .formulas import (_regular_degree0_toral, blocks, cartan_formula,
                       classify_simples_homogeneous, kostant_table, kw_scan,
                       l_constants, pm_shift_sum, semisimple_character_audit,
                       verma_mult_formula)
from .meataxe import (SimpleCatalog, are_isomorphic, chop, graded_character,
                      head, highest_weight_vectors, is_irreducible,
                      quotient_rep, spin, submodule_rep, verma_intertwiner)
from .modrep import (DEFAULT_LIMIT, LambdaWeight, build_baby_verma,
                     build_dual_verma, build_regular_module,
                     build_torus_projective, build_Zproj, enumerate_lambda,
                     inflate)
from .invariants import independence_check, invariance_check
from .pchar import (PChar, index_estimate, pchar_from_element,
                    stabilizer_dim_coeffs, support_degree)
from .report import SuiteReport


@dataclass
class SuiteConfig:
    """Parameters of one suite run; deterministic given the seed."""

    kind: str
    n: int
    p: int
    m: int
    suite: str = ""
    seed: int = 7
    samples: int = 200
    limit: int = DEFAULT_LIMIT

    def descriptor(self) -> AlgebraDescriptor:
        return AlgebraDescriptor(self.kind, self.n, self.p, self.m)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "p": self.p, "m": self.m,
                "seed": self.seed, "samples": self.samples, "limit": self.limit}


def effective_limit(cfg: SuiteConfig) -> int:
    env = os.environ.get("CURRENTREP_LIMIT")
    if not env:
        return cfg.limit
    try:
        return int(env)
    except ValueError:
        raise InvalidDescriptor(f"CURRENTREP_LIMIT={env!r} is not an integer")


def _regular_nilpotent(alg: AlgebraDescriptor) -> CurrentElement:
    mat = np.zeros((alg.n, alg.n), dtype=np.int64)
    for i in range(alg.n - 1):
        mat[i, i + 1] = 1
    return CurrentElement.from_matrix(alg, mat, 0)


# ---------------------------------------------------------------------------
# C1: structure


def _draws(seed: int, tag: int, indices, width: int, draw) -> np.ndarray:
    """(len(indices), width) int64 matrix: row i holds the integers that
    ``draw`` takes, in order, from sample i's own generator
    default_rng((seed, tag, i))."""
    rows = [np.hstack(draw(np.random.default_rng((seed, tag, i)))) for i in indices]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _count_nonzero(a: np.ndarray) -> int:
    """Number of samples (leading index) whose coefficient array is nonzero."""
    return int(np.count_nonzero(a.any(axis=(-3, -2, -1))))


def suite_structure(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    ctx = get_context(alg)
    rep = SuiteReport("structure", cfg.as_dict())
    p, D = alg.p, ctx.dim

    def br(a, b):
        return bracket_coeffs(a, b, alg)

    def elements(tag, count, k):
        """k coefficient stacks of ``count`` random elements each."""
        v = _draws(cfg.seed, tag, range(count), k * D,
                   lambda rng: [rng.integers(0, p, size=D) for _ in range(k)])
        return ctx.from_coords(v.reshape(count, k, D).swapaxes(0, 1))

    X, Y, Z = elements(101, cfg.samples, 3)
    bad_anti = _count_nonzero((br(X, Y) + br(Y, X)) % p)
    bad_jacobi = _count_nonzero((br(X, br(Y, Z)) + br(Y, br(Z, X)) + br(Z, br(X, Y))) % p)
    rep.add("bracket is anticommutative on sampled pairs",
            "g ⊗ k[t]/(t^{m+1})", {"samples": cfg.samples}, 0, bad_anti, cfg.seed)
    rep.add("Jacobi identity holds on sampled triples",
            "g ⊗ k[t]/(t^{m+1})", {"samples": cfg.samples}, 0, bad_jacobi, cfg.seed)
    # x, a scalar λ, a degree d and a degree-0 element x0 per sample
    alg0 = alg.at_order(0)
    ctx0 = get_context(alg0)
    w = _draws(cfg.seed, 102, range(cfg.samples), D + 2 + ctx0.dim,
               lambda rng: (rng.integers(0, p, size=D), rng.integers(0, p),
                            rng.integers(0, alg.m + 1), rng.integers(0, p, size=ctx0.dim)))
    X, lam, deg, X0 = ctx.from_coords(w[:, :D]), w[:, D], w[:, D + 1], ctx0.from_coords(w[:, D + 2:])
    lam_p = np.array([pow(int(c), p, p) for c in lam], dtype=np.int64)
    scaled = p_map_coeffs(X * lam[:, None, None, None] % p, alg)
    bad_semilinear = _count_nonzero((scaled - p_map_coeffs(X, alg) * lam_p[:, None, None, None]) % p)
    # graded rule on a homogeneous element: (x0 t^d)^[p] = x0^[p] t^{pd}
    rows = np.arange(cfg.samples)
    homogeneous = np.zeros_like(X)
    homogeneous[rows, deg] = X0[:, 0]
    target = np.zeros_like(X)
    kept = p * deg <= alg.m
    target[rows[kept], p * deg[kept]] = p_map_coeffs(X0, alg0)[kept, 0]
    bad_graded = _count_nonzero((p_map_coeffs(homogeneous, alg) - target) % p)
    rep.add("p-operation is p-semilinear in scalars",
            "x ↦ x^p - x^{[p]}", {"samples": cfg.samples}, 0, bad_semilinear, cfg.seed)
    rep.add("p-operation respects the graded rule on homogeneous elements",
            "xt^i = x^{[p]}t^{pi}", {"samples": cfg.samples}, 0, bad_graded, cfg.seed)
    # classify_element(x) == "nilpotent" exactly when is_nilpotent(x)
    (X,) = elements(103, cfg.samples, 1)
    X0 = np.zeros_like(X)
    X0[:, 0] = X[:, 0]
    bad_class = int(np.count_nonzero(is_nilpotent_coeffs(X, alg) != is_nilpotent_coeffs(X0, alg)))
    rep.add("element is nilpotent iff its degree-0 part is nilpotent",
            "x_0 ∈ N(g) is nilpotent", {"samples": cfg.samples}, 0, bad_class, cfg.seed)
    bad_jordan = 0
    for i in range(min(cfg.samples, 60)):
        rng = np.random.default_rng((cfg.seed, 104, i))
        x = random_element(alg, rng)
        s, nn = jordan_decompose(x)
        ok = (s + nn == x) and bracket(s, nn).is_zero() and is_nilpotent(nn)
        if not s.is_zero():
            ok = ok and classify_element(s) == "semisimple"
        if not ok:
            bad_jordan += 1
    rep.add("Jordan decomposition: commuting semisimple plus nilpotent",
            "commuting semisimple and nilpotent parts",
            {"samples": min(cfg.samples, 60)}, 0, bad_jordan, cfg.seed)
    gram_rank = linalg.rank(ctx.gram_matrix, alg.p)
    rep.add("invariant-form Gram matrix has full rank",
            "δ_{i+j, m}κ(x, y)", {}, ctx.dim, gram_rank, cfg.seed)
    X, Y, Z = elements(105, min(cfg.samples, 50), 3)
    bad_assoc = int(np.count_nonzero(kappa_coeffs(br(X, Y), Z, alg) != kappa_coeffs(X, br(Y, Z), alg)))
    rep.add("invariant form is associative",
            "δ_{i+j, m}κ(x, y)", {"samples": min(cfg.samples, 50)}, 0, bad_assoc, cfg.seed)
    return rep


# ---------------------------------------------------------------------------
# C2 / C11: index, regularity, degree reduction


def suite_index(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("index", cfg.as_dict())
    best, _wit = index_estimate(alg, cfg.samples, cfg.seed)
    rep.add("minimal sampled coadjoint stabiliser dimension",
            "ind(g_m) = (m+1) ind(g)",
            {"samples": cfg.samples}, (alg.m + 1) * alg.rank, best, cfg.seed)
    # regular degree-0 parts, in sample order, until 100 are found: each
    # chunk draws as many samples as are still needed
    ctx = get_context(alg)
    alg0 = alg.at_order(0)
    counterexamples = 0
    tried = 0
    i = 0
    while tried < 100 and i < 100 * 50:
        chunk = range(i, min(i + 100 - tried, 100 * 50))
        i = chunk.stop
        X = ctx.from_coords(_draws(cfg.seed, 106, chunk, ctx.dim,
                                   lambda rng: (rng.integers(0, alg.p, size=ctx.dim),)))
        X = X[centralizer_dim_coeffs(X[:, :1], alg0) == alg0.rank]
        tried += len(X)
        counterexamples += int(np.count_nonzero(
            centralizer_dim_coeffs(X, alg) != (alg.m + 1) * alg.rank))
    rep.add("regularity propagates from the degree-0 part",
            "x_0 is a regular element",
            {"tested": tried}, 0, counterexamples, cfg.seed)
    diag = _draws(cfg.seed, 107, range(30), alg.n,
                  lambda rng: (rng.integers(0, alg.p, size=alg.n),))
    if alg.kind == "sl":
        diag[:, -1] = (-diag[:, :-1].sum(axis=1)) % alg.p
    X0 = np.zeros((30, alg.m + 1, alg.n, alg.n), dtype=np.int64)
    X0[:, 0, range(alg.n), range(alg.n)] = diag % alg.p
    expected = (alg.m + 1) * centralizer_dim_coeffs(X0[:, :1], alg0)
    bad_semisimple_centralizer = int(np.count_nonzero(centralizer_dim_coeffs(X0, alg) != expected))
    rep.add("centraliser of a degree-0 toral element is the truncated centraliser",
            "(g_m)^{x_0} = (g^{x_0})_m", {"samples": 30}, 0,
            bad_semisimple_centralizer, cfg.seed)
    return rep


def suite_reduction(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("reduction", cfg.as_dict())
    failures = 0
    tested = 0
    if alg.m > 0:
        # a degree k < m and a dual c kept in degrees m-k..m, so that
        # χ = κ_m(c, ·) has support in degrees <= k and truncates to g_k
        ctx = get_context(alg)
        w = _draws(cfg.seed, 108, range(100), 1 + ctx.dim,
                   lambda rng: (rng.integers(0, alg.m), rng.integers(0, alg.p, size=ctx.dim)))
        ks = w[:, 0]
        C = ctx.from_coords(w[:, 1:])
        C[np.arange(alg.m + 1) < alg.m - ks[:, None]] = 0
        lhs = alg.dim_gm - stabilizer_dim_coeffs(C, alg)
        rhs = np.zeros_like(lhs)
        for k in np.unique(ks).tolist():
            psi_alg = alg.at_order(k)
            rhs[ks == k] = psi_alg.dim_gm - stabilizer_dim_coeffs(C[ks == k, alg.m - k:], psi_alg)
        tested = len(ks)
        failures = int(np.count_nonzero(lhs != rhs))
    rep.add("degree-reduction preserves the orbit defect",
            "dim g_m - dim g_m^χ = dim g_k - dim g_k^ψ",
            {"tested": tested}, 0, failures, cfg.seed)
    bad_support = 0
    for i in range(50):
        rng = np.random.default_rng((cfg.seed, 109, i))
        d = int(rng.integers(0, alg.m + 1))
        x0 = random_element(alg.at_order(0), rng)
        if x0.is_zero():
            continue
        c = CurrentElement.from_matrix(alg, x0.coeffs[0], d)
        k, hom = support_degree(pchar_from_element(c))
        if hom != alg.m - d or k != alg.m - d:
            bad_support += 1
    rep.add("duality exchanges homogeneity degrees i and m-i",
            "with support in degree m-i", {"samples": 50}, 0, bad_support, cfg.seed)
    return rep


# ---------------------------------------------------------------------------
# C3: baby Verma multiplicities


def _labelled_catalog(alg: AlgebraDescriptor, seed: int):
    """Catalog pre-seeded with the inflated restricted simples L(λ)."""
    lc = l_constants(alg, seed=seed)
    cat = SimpleCatalog(seed=seed)
    label_by_weight = {}
    for w, sid in lc.label_of.items():
        L = lc.catalog.get(sid)
        Lm = inflate(L, alg.m) if alg.m > 0 else L
        label_by_weight[w] = cat.match(Lm, f"L{w}")
    return lc, cat, label_by_weight


def suite_verma(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("verma", cfg.as_dict())
    limit = effective_limit(cfg)
    lc, cat, label_by_weight = _labelled_catalog(alg, cfg.seed)
    chi = PChar.zero(alg)
    lams = enumerate_lambda(chi)
    weights = sorted(lc.values)
    formula_rows = {}
    oracle_rows = {}
    z_needed = False
    for lam in lams:
        Z = build_baby_verma(chi, lam, limit=limit)
        series = chop(Z, seed=cfg.seed, catalog=cat)
        oracle = {w: series.multiplicity(label_by_weight[w]) for w in weights}
        formula = {w: verma_mult_formula(lam, LambdaWeight.from_degree_zero(w, alg), alg, lc)
                   for w in weights}
        if formula != oracle:
            formula_corr = {w: verma_mult_formula(
                lam, LambdaWeight.from_degree_zero(w, alg), alg, lc, z_correction=True)
                for w in weights}
            if formula_corr == oracle:
                z_needed = True
                formula = formula_corr
        formula_rows[lam.degree_zero] = formula
        oracle_rows[lam.degree_zero] = oracle
        rep.add(f"baby Verma composition multiplicities at weight {lam.degree_zero}",
                "l_μ p^{m/2 (dim(g) - rank(g)) - rank(g)}",
                {"weight": list(lam.degree_zero),
                 "z_corrected": z_needed},
                [formula[w] for w in weights], [oracle[w] for w in weights],
                cfg.seed)
    first = next(iter(oracle_rows.values()), None)
    if alg.dim_z == 0 and first is not None:
        rep.add("multiplicities are independent of the weight",
                "these composition multiplicities depend only on λ|_{z(g)}",
                {}, True, all(v == first for v in oracle_rows.values()), cfg.seed)
    rep.add("z-corrected constant required",
            "suggested correction factor p^{dim z(g)}",
            {"dim_z": alg.dim_z}, alg.dim_z > 0, z_needed, cfg.seed)
    return rep


# ---------------------------------------------------------------------------
# C4: Cartan invariants


def suite_cartan(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("cartan", cfg.as_dict())
    limit = effective_limit(cfg)
    lc, cat, label_by_weight = _labelled_catalog(alg, cfg.seed)
    chi = PChar.zero(alg)
    lams = enumerate_lambda(chi)
    weights = sorted(lc.values)

    # regular-module audit: [U_0 : L(mu)] = sum_lambda dim L(lambda) c_{lambda mu}
    try:
        U = build_regular_module(chi, limit=limit)
        series = chop(U, seed=cfg.seed, catalog=cat)
        oracle = [series.multiplicity(label_by_weight[w]) for w in weights]
        formula = []
        for w2 in weights:
            mu = LambdaWeight.from_degree_zero(w2, alg)
            total = 0
            for w1 in weights:
                lam = LambdaWeight.from_degree_zero(w1, alg)
                total += lc.dims[w1] * cartan_formula(lam, mu, alg, lc,
                                                      z_correction=alg.dim_z > 0)
            formula.append(total)
        rep.add("regular module composition multiplicities match the Cartan formula",
                "l_λ l_μ p^{m dim(g) - rank(g)}",
                {"weights": [list(w) for w in weights]}, formula, oracle, cfg.seed)
    except TooLarge as ex:
        rep.skip("regular module audit", str(ex))

    # Z_proj filtration: (Z_proj(lambda) : Z(mu)) = delta * p^{m r}
    try:
        for w1 in weights:
            lam = LambdaWeight.from_degree_zero(w1, alg)
            Zp = build_Zproj(chi, lam, limit=limit)
            counts = _zproj_filtration_multiplicities(Zp, alg, chi, lams, cfg.seed, limit)
            expected = {w2: (alg.p ** (alg.m * alg.rank) if w2 == w1 else 0) for w2 in weights}
            rep.add(f"baby Verma filtration multiplicities of the induced projective at {w1}",
                    "(Z_proj(λ):Z(μ)) = δ_{λ,μ} p^{m rank(g)}",
                    {"weight": list(w1)},
                    [expected[w] for w in weights],
                    [counts.get(w, 0) for w in weights], cfg.seed)
    except TooLarge as ex:
        rep.skip("baby Verma filtration multiplicities of the induced projective", str(ex))

    # dual baby Vermas have the same factors
    for w in weights:
        lam = LambdaWeight.from_degree_zero(w, alg)
        Z = build_baby_verma(chi, lam, limit=limit)
        D = build_dual_verma(lam, alg, limit=limit)
        sZ = chop(Z, seed=cfg.seed, catalog=cat)
        sD = chop(D, seed=cfg.seed, catalog=cat)
        rep.add(f"dual baby Verma at {w} has the same composition factors",
                "[DZ(μ): L(λ)] = [Z(μ): L(λ)]",
                {"weight": list(w)}, sorted(sZ.factors), sorted(sD.factors),
                cfg.seed)
    return rep


def _zproj_filtration_multiplicities(Zp, alg, chi, lams, seed, limit):
    """Count Verma sections of the torus-degree filtration of Z_proj.

    The coordinates of t-degree at least d span the d-th submodule, so the
    section at degree d acts on the coordinates of t-degree exactly d.
    """
    tags = np.array(Zp.tdeg_tags)
    counts = Counter()
    maxdeg = int(tags.max()) if len(tags) else 0
    vermas = {lam.degree_zero: build_baby_verma(chi, lam, limit=limit) for lam in lams}
    dimZ = alg.p ** ((alg.m + 1) * alg.num_pos_roots)

    def section_blocks(d):
        # one action at a time, so only its block of each is kept
        for i in range(len(Zp.gens)):
            A = Zp.action(i)
            if np.any(A[np.ix_(tags < d, tags >= d)]):
                raise InternalError("filtration subspace is not invariant")
            yield A[np.ix_(tags == d, tags == d)]

    for d in range(maxdeg + 1):
        section = type(Zp)(alg, chi, Zp.gens, section_blocks(d))
        if section.dim == 0:
            continue
        if section.dim % dimZ:
            raise InternalError("section dimension is not a Verma multiple")
        # split the section into its Verma summands by spinning highest vectors
        counts.update(_split_verma_section(section, vermas, alg, seed))
    return counts


def _split_verma_section(section, vermas, alg, seed):
    """Identify a direct sum of baby Vermas, peeling one summand at a time."""
    counts = Counter()
    remaining = section
    while remaining.dim:
        matched = False
        for w, Z in vermas.items():
            if remaining.dim == Z.dim:
                lam = LambdaWeight.from_degree_zero(w, alg)
                if verma_intertwiner(Z, remaining, lam) is not None:
                    counts[w] += 1
                    matched = True
                    break
        if matched:
            break
        hv = _find_verma_summand(remaining, vermas, alg, seed)
        if hv is None:
            raise InternalError("could not split a Verma summand off the section")
        w, sub = hv
        counts[w] += 1
        remaining = quotient_rep(remaining, sub)
    return counts


def _find_verma_summand(M, vermas, alg, seed):
    p = alg.p
    acts = M.stack
    for w, Z in vermas.items():
        lam = LambdaWeight.from_degree_zero(w, alg)
        for v in highest_weight_vectors(M, lam):
            sub = spin(acts, v, p)
            if sub.dim == Z.dim:
                cand = submodule_rep(M, sub)
                if verma_intertwiner(Z, cand, lam) is not None:
                    return w, sub
    return None


# ---------------------------------------------------------------------------
# C5: simplicity and classification


def suite_simples(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("simples", cfg.as_dict())
    limit = effective_limit(cfg)
    e = _regular_nilpotent(alg)
    chi = pchar_from_element(e)
    lams = enumerate_lambda(chi)
    if alg.kind == "sl":
        mods = [build_baby_verma(chi, lam, limit=limit) for lam in lams]
        irr = [is_irreducible(Z, seed=cfg.seed) for Z in mods]
        rep.add("baby Vermas at the regular nilpotent character are simple",
                "Z_χ(λ) is simple for all", {"count": len(mods)},
                [True] * len(mods), irr, cfg.seed)
        iso_flags = []
        for i in range(1, len(mods)):
            flag, wit = are_isomorphic(mods[0], mods[i], seed=cfg.seed)
            iso_flags.append(flag and wit is not None)
        rep.add("all simple quotients are pairwise isomorphic (trivial centre)",
                "λ|_{z(g)} = μ|_{z(g)}", {"pairs": len(iso_flags)},
                [True] * len(iso_flags), iso_flags, cfg.seed)
        cls = classify_simples_homogeneous(chi, seed=cfg.seed)
        rep.add("class count matches the centre of the Levi",
                "λ|_{z(g_I)} = μ|_{z(g_I)}", {"partition": list(cls.levi.partition)},
                cls.predicted_count, cls.class_count, cfg.seed)
    else:
        for partition_mat, pname in _gl_partition_cases(alg):
            _gl_classification_checks(rep, cfg, alg, partition_mat, pname, limit)
    return rep


def _gl_partition_cases(alg):
    cases = []
    reg = np.zeros((alg.n, alg.n), dtype=np.int64)
    for i in range(alg.n - 1):
        reg[i, i + 1] = 1
    cases.append((reg, "regular"))
    if alg.n >= 3:
        sub = np.zeros((alg.n, alg.n), dtype=np.int64)
        sub[0, 1] = 1
        cases.append((sub, "subregular-levi"))
    return cases


def _gl_classification_checks(rep, cfg, alg, emat, pname, limit):
    e = CurrentElement.from_matrix(alg, emat, 0)
    chi = pchar_from_element(e)
    cls = classify_simples_homogeneous(chi, seed=cfg.seed)
    rep.add(f"class count for nilpotent of partition {list(cls.levi.partition)}",
            "λ|_{z(g_I)} = μ|_{z(g_I)}",
            {"partition": list(cls.levi.partition), "nilpotent": pname},
            cls.predicted_count, cls.class_count, cfg.seed)
    class_sizes = sorted({len(c) for c in cls.classes})
    total = alg.p ** alg.rank
    rep.add(f"all classes have equal size for partition {list(cls.levi.partition)}",
            "λ|_{z(g_I)} = μ|_{z(g_I)}",
            {"partition": list(cls.levi.partition)},
            [total // cls.predicted_count], class_sizes, cfg.seed)

    # within-class witnesses: explicit Verma intertwiners; cross-class: the
    # heads of consecutive representatives, cyclically, are non-isomorphic.
    # One rolling pass holds only the first, the previous and the next head.
    within_ok = []
    head_dims = set()
    first = prev = None
    cross_bad = 0
    pairs = 0
    for cl in cls.classes:
        lam, mu = cl[0], cl[1]
        Zl = build_baby_verma(chi, lam, limit=limit)
        Zm = build_baby_verma(chi, mu, limit=limit)
        within_ok.append(verma_intertwiner(Zm, Zl, mu) is not None)
        del Zm  # and its lifted stack, before the head of Z_lam is taken
        H = Zl if is_irreducible(Zl, seed=cfg.seed) else head(Zl, seed=cfg.seed)
        head_dims.add(H.dim)
        if prev is None:
            first = H
        else:
            pairs += 1
            cross_bad += are_isomorphic(prev, H, seed=cfg.seed)[0]
        prev = H
    if len(cls.classes) > 1:
        pairs += 1
        cross_bad += are_isomorphic(prev, first, seed=cfg.seed)[0]
    rep.add(f"within-class baby Vermas are isomorphic (partition {list(cls.levi.partition)})",
            "λ|_{z(g_I)} = μ|_{z(g_I)}",
            {"pairs": len(within_ok)}, [True] * len(within_ok), within_ok, cfg.seed)
    rep.add(f"cross-class simple quotients are non-isomorphic (partition {list(cls.levi.partition)})",
            "λ|_{z(g_I)} = μ|_{z(g_I)}",
            {"pairs": pairs, "head_dims": sorted(head_dims)},
            0, cross_bad, cfg.seed)


# ---------------------------------------------------------------------------
# C6: semisimple characters


def suite_semisimple(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("semisimple", cfg.as_dict())
    audit = semisimple_character_audit(alg, seed=cfg.seed, limit=effective_limit(cfg))
    rep.add("number of simple modules at a regular toral character",
            "precisely p^{rank(g)} simple modules",
            {}, audit.expected_count, audit.simple_count, cfg.seed)
    rep.add("all simples have the predicted dimension and are pairwise distinct",
            "Mat_{p^{(m+1)ind(g)}} U_0(h_m)",
            {}, [audit.expected_dim] * audit.simple_count + [True, True],
            audit.simple_dims + [audit.all_simple, audit.pairwise_distinct],
            cfg.seed)
    rep.add("dimension audit of the matrix-algebra shape",
            "Mat_{p^{(m+1)ind(g)}} U_0(h_m)", {}, True, audit.dimension_audit_ok,
            cfg.seed)
    if audit.projective_dim is not None:
        rep.add("projective dimension over the regular toral character",
                "p^{(m+1)/2(dim(g) + rank(g)) - rank(g)}",
                {"factors": audit.projective_factors},
                audit.expected_projective_dim, audit.projective_dim, cfg.seed)
    else:
        rep.skip("projective dimension over the regular toral character",
                 audit.projective_skip)
    chi0 = PChar.zero(alg)
    lam = enumerate_lambda(chi0)[0]
    Q = build_torus_projective(chi0, lam)
    series = chop(Q, seed=cfg.seed)
    rep.add("torus projective cover has a single composition factor",
            "multiplicity p^{m dim(h)}",
            {"dim": Q.dim},
            [alg.p ** (alg.m * alg.rank)],
            [m for _s, m in series.factors], cfg.seed)

    # completeness: every simple occurs in the regular module, so its
    # decomposition certifies that the Borel-induced simples are all of them
    limit = effective_limit(cfg)
    if alg.p ** alg.dim_gm <= limit:
        h_reg = _regular_degree0_toral(alg)
        chi = pchar_from_element(h_reg)
        cat = SimpleCatalog(seed=cfg.seed)
        for i, lam_i in enumerate(enumerate_lambda(chi)):
            Z = build_baby_verma(chi, lam_i, limit=limit)
            cat.match(Z, f"V{i}")
        U = build_regular_module(chi, limit=limit)
        useries = chop(U, seed=cfg.seed, catalog=cat)
        proj_dim = alg.p ** ((alg.m + 1) * (alg.dim_g + alg.rank) // 2 - alg.rank)
        rep.add("regular module factors are exactly the Borel-induced simples",
                "precisely p^{rank(g)} simple modules",
                {"factor_dims": sorted(useries.dims.values())},
                sorted(f"V{i}" for i in range(alg.p ** alg.rank)),
                sorted(s for s, _m in useries.factors), cfg.seed)
        rep.add("regular-module multiplicities equal the projective dimension",
                "p^{(m+1)/2(dim(g) + rank(g)) - rank(g)}",
                {}, [proj_dim] * (alg.p ** alg.rank),
                [m for _s, m in useries.factors], cfg.seed)
    else:
        rep.skip("regular module completeness check",
                 "regular module exceeds the dimension limit")
    return rep


# ---------------------------------------------------------------------------
# C7: Kac-Weisfeiler


def suite_kw(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("kw", cfg.as_dict())
    regular_limit = 800 if (alg.p == 3 and alg.m == 1) else 130
    scan = kw_scan(alg, cfg.samples, cfg.seed, regular_limit=regular_limit,
                   limit=effective_limit(cfg), full_chop_budget=12)
    rep.add("maximal constructed simple dimension attains the bound",
            "The first Kac-Weisfeiler conjecture holds",
            {"samples": cfg.samples, "routes": dict(scan.checked_simple_counts),
             "notes": len(scan.notes)},
            scan.kw1_bound, scan.max_simple_dim, cfg.seed)
    rep.add("the bound is attained at a regular semisimple witness",
            "dimension p^{(m+1)/2(dim(g) - rank(g))}",
            {}, True, scan.kw1_attained, cfg.seed)
    rep.add("no divisibility violations among constructed simples",
            "holds for (sl_2)_m provided p > 2",
            {"samples": cfg.samples}, [], scan.kw2_violations, cfg.seed)
    # regular toral character: simple count and projective dimension
    audit = semisimple_character_audit(alg, seed=cfg.seed, limit=effective_limit(cfg))
    rep.add("simple count at the regular toral witness",
            "precisely p^{rank(g)} simple modules",
            {}, audit.expected_count, audit.simple_count, cfg.seed)
    if audit.projective_dim is not None:
        rep.add("projective dimension at the regular toral witness",
                "p^{(m+1)/2(dim(g) + rank(g)) - rank(g)}",
                {}, audit.expected_projective_dim, audit.projective_dim, cfg.seed)
    else:
        rep.skip("projective dimension at the regular toral witness",
                 audit.projective_skip)
    return rep


# ---------------------------------------------------------------------------
# C8: partition function and graded characters


def suite_partition(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    ctx = get_context(alg)
    rep = SuiteReport("partition", cfg.as_dict())
    table = kostant_table(alg)
    rep.add("partition table total mass",
            "Σ_γ p_m(γ) = p^{m/2(dim(g) - rank(g))}",
            {}, alg.p ** (alg.m * alg.num_pos_roots), table.total_mass, cfg.seed)
    central_bad = 0
    if alg.dim_z:
        for gamma, v in table.table.items():
            if v and sum(gamma) != 0:
                central_bad += 1
    rep.add("partition function vanishes off the centre-trivial cosets",
            "p_m(γ) = 0 if (dγ)|_{z(g)} ≠ 0", {}, 0, central_bad, cfg.seed)

    # shift sum over a lattice box of radius 3p
    radius = 3 * alg.p
    rng = np.random.default_rng((cfg.seed, 110))
    probes = [ctx.roots.canonical_weight((0,) * alg.n)]
    for _ in range(40):
        gamma = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=alg.n))
        probes.append(ctx.roots.canonical_weight(gamma))
    _v0, paper_const, corr_const = pm_shift_sum(probes[0], alg, table)
    expected_const = paper_const if alg.dim_z == 0 else corr_const
    expected = []
    observed = []
    for gamma in probes:
        val, _p_, _c_ = pm_shift_sum(gamma, alg, table)
        observed.append(val)
        if alg.dim_z == 0:
            expected.append(expected_const)
        else:
            on_class = sum(gamma) % alg.p == 0
            expected.append(expected_const if on_class else 0)
    nonzero = sorted({v for v in observed if v})
    matching = ("paper" if nonzero == [paper_const] else
                "z-corrected" if nonzero == [corr_const] else "neither")
    rep.add("shift sum over the sampled lattice box",
            "Σ_δ p_m(γ - pδ) = p^{m/2(dim(g) - rank(g)) - rank(g)}",
            {"radius": radius, "probes": len(probes),
             "matching_constant": matching,
             "paper_constant": paper_const, "z_corrected_constant": corr_const},
            expected, observed, cfg.seed)

    # exact constancy on root-lattice translates
    bad_shift = 0
    base = ctx.roots.canonical_weight((0,) * alg.n)
    v0, _, _ = pm_shift_sum(base, alg, table)
    for ij in ctx.roots.pos_roots:
        gamma = ctx.roots.root_tuple(ij)
        v, _, _ = pm_shift_sum(gamma, alg, table)
        if v != v0:
            bad_shift += 1
    rep.add("shift sum is constant along root translates",
            "bijection f: S_γ → S_{γ+β}", {}, 0, bad_shift, cfg.seed)

    # graded character convolution where the graded Vermas are buildable
    if alg.p ** ((alg.m + 1) * alg.num_pos_roots) <= effective_limit(cfg):
        bad_conv = 0
        chi = PChar.zero(alg)
        gammas = [ctx.roots.canonical_weight((g,) + (0,) * (alg.n - 1))
                  for g in range(alg.p)]
        small = get_context(alg.at_order(0))
        for gamma in gammas:
            lam = LambdaWeight.from_degree_zero(ctx.roots.d_map(gamma), alg)
            Z = build_baby_verma(chi, lam, gamma=gamma, limit=effective_limit(cfg))
            lhs = graded_character(Z).table
            rhs = Counter()
            # finite sum: p_m(γ - β) vanishes unless β = γ - δ, δ in the support
            for delta in table.support():
                beta = ctx.roots.weight_add(gamma, delta, sign=-1)
                lam0 = LambdaWeight.from_degree_zero(small.roots.d_map(beta), alg.at_order(0))
                Z0 = build_baby_verma(PChar.zero(alg.at_order(0)), lam0, gamma=beta)
                cnt = table.table[delta]
                for tag, mult in graded_character(Z0).table.items():
                    rhs[tag] += cnt * mult
            if dict(lhs) != {k: v for k, v in rhs.items() if v}:
                bad_conv += 1
        rep.add("graded characters satisfy the partition-function convolution",
                "Char Ẑ(γ) = Σ_β p_m(γ - β) Char Ẑ^g(β)",
                {"gammas": len(gammas)}, 0, bad_conv, cfg.seed)
    return rep


# ---------------------------------------------------------------------------
# C9: blocks


def suite_blocks(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("blocks", cfg.as_dict())
    limit = effective_limit(cfg)
    if alg.dim_z == 0:
        bp = blocks(alg, seed=cfg.seed, limit=limit)
        rep.add("single block for trivial centre",
                "U_0(g_m) has only one block", {}, 1, bp.count, cfg.seed)
        rep.add("block count against the remark",
                "the number of blocks is p^{(m+1) dim z(g)}",
                {"predicted_by_remark": bp.predicted_remark},
                bp.predicted_remark, bp.count, cfg.seed)
    else:
        # central-character slice: weights with zero central sum
        chi = PChar.zero(alg)
        lams = enumerate_lambda(chi)
        slice_weights = [l.degree_zero for l in lams if sum(l.degree_zero) % alg.p == 0]
        bp = blocks(alg, seed=cfg.seed, limit=limit, weights_subset=slice_weights)
        z_classes = alg.p ** alg.dim_z
        rep.add("slice linkage graph is connected (one block per central class)",
                "λ|_{z(g)} = μ|_{z(g)} ... lie in the same block",
                {"slice_size": len(slice_weights)}, 1, bp.count, cfg.seed)
        # exact separation of central characters: z t^0 acts by the scalar
        # sum(λ) on each baby Verma, so blocks refine the z-classes
        bad_scalar = 0
        ctx = get_context(alg)
        eye_scalars = []
        for lam in lams[:: max(1, len(lams) // 6)]:
            Z = build_baby_verma(chi, lam, limit=limit)
            zc = ctx.coords(CurrentElement.from_matrix(alg, np.eye(alg.n, dtype=np.int64), 0))
            zmat = Z.action_of_coords(zc)
            scalar = sum(lam.degree_zero) % alg.p
            if not np.array_equal(zmat, scalar * np.eye(Z.dim, dtype=np.int64) % alg.p):
                bad_scalar += 1
        rep.add("the central element acts by the central character on each baby Verma",
                "λ|_{z(g)} = μ|_{z(g)}", {"checked": len(lams[:: max(1, len(lams) // 6)])},
                0, bad_scalar, cfg.seed)
        linkage_count = bp.count * z_classes
        rep.add("block count at the linkage level against the remark",
                "the number of blocks is p^{(m+1) dim z(g)}",
                {"slice_blocks": bp.count,
                 "central_classes": z_classes,
                 "linkage_count_all_slices_if_symmetric": linkage_count,
                 "remark_predicts": bp.predicted_remark,
                 "remark_matches_linkage": linkage_count == bp.predicted_remark},
                z_classes, bp.count * z_classes, cfg.seed)
    return rep


# ---------------------------------------------------------------------------
# C10: invariants


def suite_invariants(cfg: SuiteConfig) -> SuiteReport:
    alg = cfg.descriptor()
    rep = SuiteReport("invariants", cfg.as_dict())
    inv = invariance_check(alg, min(cfg.samples, 100), cfg.seed)
    rep.add("invariance under sampled group conjugations",
            "each p_{i,j} is G_m-invariant",
            {"samples": inv.samples},
            [], inv.conjugation_failures, cfg.seed)
    rep.add("directional derivatives along bracket directions vanish",
            "each p_{i,j} is G_m-invariant",
            {"samples": inv.samples}, [], inv.ad_failures, cfg.seed)
    ind = independence_check(alg, 20, cfg.seed)
    rep.add("generic Jacobian of the invariant generators has full rank",
            "form an algebraically independent set of generators",
            {"target": ind.target_rank}, ind.target_rank, ind.best_rank, cfg.seed)
    return rep


SUITES = {
    "structure": suite_structure,
    "index": suite_index,
    "verma": suite_verma,
    "cartan": suite_cartan,
    "simples": suite_simples,
    "semisimple": suite_semisimple,
    "kw": suite_kw,
    "partition": suite_partition,
    "blocks": suite_blocks,
    "invariants": suite_invariants,
    "reduction": suite_reduction,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    cfg.descriptor()  # validates parameters
    return SUITES[cfg.suite](cfg)
