"""Span tracer for the layers of currentrep, built from the benchmark alone.

While installed, a :class:`Tracer` replaces the public functions of each
layer (module attributes, class methods and the suite table) with wrappers
that record one span per call: its name, start, end and the enclosing span.
Spans live in flat arrays in memory and are written out once, at the end of
the run.  Outcome counters (flop volume, splits, isomorphic pairs, ...) are
taken from the arguments and results at the same boundaries.

Derived quantities:

- ``calls``: number of spans of the name;
- ``incl_s``: summed duration of the outermost spans of the name, so nested
  or recursive calls are not counted twice;
- ``self_s``: summed span duration minus the time covered by direct child
  spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from patching import Patches

# (metric prefix, module, attribute).  A function is patched in every loaded
# currentrep module that bound it by name, so `from .x import f` call sites
# are traced as well.
FUNCTIONS = [
    ("linalg.matmul", "currentrep.linalg", "matmul"),
    ("linalg.rref", "currentrep.linalg", "rref"),
    ("linalg.kernel", "currentrep.linalg", "kernel"),
    ("linalg.inv", "currentrep.linalg", "inv"),
    ("modrep.build_induced", "currentrep.modrep", "build_induced"),
    ("meataxe.chop", "currentrep.meataxe", "chop"),
    ("meataxe.find_invariant_subspace", "currentrep.meataxe", "find_invariant_subspace"),
    ("meataxe.spin", "currentrep.meataxe", "spin"),
    ("meataxe.restrict_quotient", "currentrep.meataxe", "restrict_actions"),
    ("meataxe.restrict_quotient", "currentrep.meataxe", "quotient_actions"),
    ("meataxe.weight_character", "currentrep.meataxe", "weight_character"),
    ("meataxe.are_isomorphic", "currentrep.meataxe", "are_isomorphic"),
    ("meataxe.is_irreducible", "currentrep.meataxe", "is_irreducible"),
    ("meataxe.head", "currentrep.meataxe", "head"),
    ("meataxe.verma_intertwiner", "currentrep.meataxe", "verma_intertwiner"),
    ("formulas.blocks", "currentrep.formulas", "blocks"),
    ("formulas.kw_scan", "currentrep.formulas", "kw_scan"),
    ("formulas.semisimple_character_audit", "currentrep.formulas", "semisimple_character_audit"),
    ("formulas.l_constants", "currentrep.formulas", "l_constants"),
    ("formulas.classify_simples_homogeneous", "currentrep.formulas", "classify_simples_homogeneous"),
    ("algebra.bracket", "currentrep.algebra", "bracket"),
    ("algebra.p_map", "currentrep.algebra", "p_map"),
    ("algebra.jordan_decompose", "currentrep.algebra", "jordan_decompose"),
    ("algebra.centralizer_dim", "currentrep.algebra", "centralizer_dim"),
    ("pchar.stabilizer_dim", "currentrep.pchar", "stabilizer_dim"),
    ("invariants.invariance_check", "currentrep.invariants", "invariance_check"),
]

# (metric prefix, module, class, method)
METHODS = [
    ("linalg.echelon", "currentrep.linalg", "Echelon", "residual"),
    ("linalg.echelon", "currentrep.linalg", "Echelon", "add_rows"),
    ("linalg.echelon", "currentrep.linalg", "Echelon", "contains"),
    ("linalg.echelon", "currentrep.linalg", "Echelon", "coords"),
    ("meataxe.catalog_match", "currentrep.meataxe", "SimpleCatalog", "match"),
]

# The suites the workloads run.
SUITE_NAMES = ["structure", "index", "reduction", "partition", "invariants",
               "simples", "blocks"]

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
METRICS = [
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.matmul.gflop", "Gflop"), ("linalg.matmul.gflop_per_s", "Gflop/s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.incl_s", "s"),
    ("linalg.inv.calls", "count"), ("linalg.inv.incl_s", "s"),
    ("linalg.echelon.calls", "count"), ("linalg.echelon.self_s", "s"),
    ("modrep.build_induced.calls", "count"), ("modrep.build_induced.incl_s", "s"),
    ("modrep.build_induced.dim_sum", "count"),
    ("meataxe.chop.calls", "count"), ("meataxe.chop.incl_s", "s"),
    ("meataxe.chop.dim_sum", "count"), ("meataxe.chop.weight_dim_sum", "count"),
    ("meataxe.chop.factors", "count"), ("meataxe.chop.retries", "count"),
    ("meataxe.find_invariant_subspace.calls", "count"),
    ("meataxe.find_invariant_subspace.incl_s", "s"),
    ("meataxe.find_invariant_subspace.certified", "count"),
    ("meataxe.find_invariant_subspace.split", "count"),
    ("meataxe.find_invariant_subspace.inconclusive", "count"),
    ("meataxe.spin.calls", "count"), ("meataxe.spin.incl_s", "s"),
    ("meataxe.spin.proper", "count"),
    ("meataxe.restrict_quotient.incl_s", "s"),
    ("meataxe.weight_character.incl_s", "s"),
    ("meataxe.are_isomorphic.calls", "count"), ("meataxe.are_isomorphic.incl_s", "s"),
    ("meataxe.are_isomorphic.isomorphic", "count"),
    ("meataxe.catalog_match.calls", "count"), ("meataxe.catalog_match.incl_s", "s"),
    ("meataxe.catalog_match.new", "count"),
    ("meataxe.is_irreducible.calls", "count"), ("meataxe.is_irreducible.incl_s", "s"),
    ("meataxe.head.incl_s", "s"),
    ("meataxe.verma_intertwiner.calls", "count"),
    ("meataxe.verma_intertwiner.incl_s", "s"),
    ("formulas.blocks.incl_s", "s"), ("formulas.kw_scan.incl_s", "s"),
    ("formulas.semisimple_character_audit.incl_s", "s"),
    ("formulas.l_constants.incl_s", "s"),
    ("formulas.classify_simples_homogeneous.incl_s", "s"),
    ("algebra.bracket.calls", "count"), ("algebra.bracket.self_s", "s"),
    ("algebra.p_map.calls", "count"), ("algebra.p_map.self_s", "s"),
    ("algebra.jordan_decompose.incl_s", "s"), ("algebra.centralizer_dim.incl_s", "s"),
    ("pchar.stabilizer_dim.incl_s", "s"), ("invariants.invariance_check.incl_s", "s"),
] + [(f"suites.{s}.incl_s", "s") for s in SUITE_NAMES] + [("trace.overhead_s", "s")]


def _dims(x):
    shape = np.shape(x)
    if len(shape) == 1:
        return 1, shape[0]
    return shape[-2], shape[-1]


def is_weight_module(M) -> bool:
    """Degree-0 toral actions satisfy A^p = A, the test weight_character applies.

    Products run in float64, exact while dim * (p-1)^2 < 2^53.
    """
    if M.weight_tags is not None:
        return True
    from currentrep.algebra import get_context
    ctx = get_context(M.alg)
    p = M.alg.p
    slots = {g: i for i, g in enumerate(M.gens)}
    for g in ctx.torus_indices:
        if ctx.meta[g].degree != 0 or g not in slots:
            continue
        A = M.action(slots[g]).astype(np.float64)
        P = A
        for _ in range(p - 1):
            P = np.fmod(P @ A, p)
        if not np.array_equal(P, A):
            return False
    return True


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counters = defaultdict(float)
        self._patches = Patches()

    # -- recording --------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        name_of, parent, outer = self.name_of, self.parent, self.outer
        start, end, stack, active = self.start, self.end, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            out = exc = None
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as ex:
                exc = ex
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
                if after is not None:
                    after(state, args, kwargs, out, exc)

        return traced

    # -- outcome hooks ----------------------------------------------------

    def _hooks(self):
        """prefix -> (before, after) hooks that update the outcome counters."""
        from currentrep.errors import Inconclusive
        c = self.counters

        def matmul(_s, args, _k, _out, _exc):
            m, k = _dims(args[0])
            _, n = _dims(args[1])
            c["linalg.matmul.gflop"] += 2.0 * m * k * n / 1e9

        def rref(_s, args, _k, _out, _exc):
            r, cols = _dims(args[0])
            c["linalg.rref.cells"] += r * cols

        def build_induced(_s, _a, _k, out, exc):
            if exc is None:
                c["modrep.build_induced.dim_sum"] += out.dim

        def chop(_s, args, _k, out, exc):
            if exc is None:
                M = args[0]
                c["meataxe.chop.dim_sum"] += M.dim
                c["meataxe.chop.factors"] += sum(m for _sid, m in out.factors)
                c["meataxe.chop.retries"] += out.retries
                if is_weight_module(M):
                    c["meataxe.chop.weight_dim_sum"] += M.dim

        def find_invariant_subspace(_s, _a, _k, out, exc):
            if isinstance(exc, Inconclusive):
                c["meataxe.find_invariant_subspace.inconclusive"] += 1
            elif exc is None:
                key = "certified" if out is None else "split"
                c[f"meataxe.find_invariant_subspace.{key}"] += 1

        def spin(_s, _a, _k, out, exc):
            if exc is None and out.dim < out.n:
                c["meataxe.spin.proper"] += 1

        def are_isomorphic(_s, _a, _k, out, exc):
            if exc is None and out[0]:
                c["meataxe.are_isomorphic.isomorphic"] += 1

        def catalog_size(args):
            return len(args[0].entries)

        def catalog_match(size_before, args, _k, _out, exc):
            if exc is None and len(args[0].entries) > size_before:
                c["meataxe.catalog_match.new"] += 1

        return {
            "linalg.matmul": (None, matmul),
            "linalg.rref": (None, rref),
            "modrep.build_induced": (None, build_induced),
            "meataxe.chop": (None, chop),
            "meataxe.find_invariant_subspace": (None, find_invariant_subspace),
            "meataxe.spin": (None, spin),
            "meataxe.are_isomorphic": (None, are_isomorphic),
            "meataxe.catalog_match": (catalog_size, catalog_match),
        }

    # -- patching ---------------------------------------------------------

    def install(self):
        hooks = self._hooks()

        def wrapper(prefix):
            return lambda fn: self.wrap(prefix, fn, *hooks.get(prefix, (None, None)))

        for prefix, modname, attr in FUNCTIONS:
            self._patches.function(modname, attr, wrapper(prefix))
        for prefix, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patches.replace(cls, meth, wrapper(prefix)(vars(cls)[meth]))
        suites = sys.modules["currentrep.suites"].SUITES
        for name in SUITE_NAMES:
            self._patches.replace(suites, name, self.wrap(f"suites.{name}", suites[name]))

    def uninstall(self):
        self._patches.undo()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived metrics --------------------------------------------------

    def totals(self) -> dict:
        """calls / incl_s / self_s per span name, plus the outcome counters."""
        n = len(self.start)
        name_of = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selfdur = dur - child
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name_of, weights=selfdur, minlength=k)
        out = dict(self.counters)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.incl_s"] = float(incl[i])
            out[f"{name}.self_s"] = float(own[i])
        return out

    def dump(self, path):
        """Write the spans as arrays: name id, start, end, parent index."""
        n = len(self.start)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.int32, count=n),
                 start=np.frombuffer(self.start, dtype=np.float64, count=n),
                 end=np.frombuffer(self.end, dtype=np.float64, count=n),
                 parent=np.frombuffer(self.parent, dtype=np.int32, count=n))


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """Per-round means of every per-layer metric, keyed as in METRICS."""
    tot = tracer.totals()
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            val = overhead_s
        elif name == "linalg.matmul.gflop_per_s":
            secs = tot.get("linalg.matmul.self_s", 0.0)
            val = tot.get("linalg.matmul.gflop", 0.0) / secs if secs else 0.0
        else:
            val = tot.get(name, 0.0) / rounds
        out[name] = {"value": val, "unit": unit}
    return out
