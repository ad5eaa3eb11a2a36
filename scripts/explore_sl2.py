#!/usr/bin/env python3
"""Worked example on (sl_2)_1 at p = 3.

Builds the restricted baby Vermas and the regular module, chops them, and
prints the multiplicity tables next to the closed-form values.
"""

from currentrep.algebra import AlgebraDescriptor, CurrentElement
from currentrep.formulas import cartan_formula, l_constants, verma_mult_formula
from currentrep.meataxe import SimpleCatalog, chop, head, is_irreducible
from currentrep.modrep import (LambdaWeight, build_baby_verma,
                               build_regular_module, enumerate_lambda, inflate)
from currentrep.pchar import PChar, pchar_from_element

alg = AlgebraDescriptor("sl", 2, 3, 1)
chi0 = PChar.zero(alg)
lc = l_constants(alg, seed=1)
print("l-constants:", dict(sorted(lc.values.items())))
print("simple dimensions:", dict(sorted(lc.dims.items())))

cat = SimpleCatalog(seed=1)
labels = {}
for w, sid in lc.label_of.items():
    labels[w] = cat.match(inflate(lc.catalog.get(sid), 1), f"L{w}")

weights = sorted(lc.values)
print("\nbaby Verma multiplicities (rows: λ, columns: μ; formula == chop)")
for lam_w in weights:
    lam = LambdaWeight.from_degree_zero(lam_w, alg)
    Z = build_baby_verma(chi0, lam)
    series = chop(Z, seed=2, catalog=cat)
    oracle = [series.multiplicity(labels[w]) for w in weights]
    formula = [verma_mult_formula(lam, LambdaWeight.from_degree_zero(w, alg), alg, lc)
               for w in weights]
    print(f"  Z({lam_w}): formula {formula}  chop {oracle}")

print("\nCartan invariants  c = l_λ l_μ p^{m dim - r}")
for w1 in weights:
    row = [cartan_formula(LambdaWeight.from_degree_zero(w1, alg),
                          LambdaWeight.from_degree_zero(w2, alg), alg, lc)
           for w2 in weights]
    print(f"  {w1}: {row}")

print("\nregular module decomposition (dim 729)")
U = build_regular_module(chi0)
series = chop(U, seed=3, catalog=cat)
for sid, mult in series.factors:
    print(f"  [U_0 : {sid}] = {mult}")

e = CurrentElement.from_matrix(alg, [[0, 1], [0, 0]])
chie = pchar_from_element(e)
Zs = [build_baby_verma(chie, lam) for lam in enumerate_lambda(chie)]
print("\nregular nilpotent character: baby Vermas simple?",
      [is_irreducible(Z, seed=4) for Z in Zs])
