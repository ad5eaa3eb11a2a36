"""Source rules that a normal test run would not notice being broken.

``python -O`` strips ``assert`` statements, so library invariants raise
``InternalError``; a handler for ``Exception`` (or a bare ``except``)
would turn a bug into an ordinary-looking outcome; an import inside a
function hides a module's dependencies from its header, and an import
that nothing reads lists one that the module does not have; renaming a
function that the benchmark wraps by name would only show when the
benchmark runs; and code outside ``linalg`` that reads its private helpers
or the lifted action stack depends on how F_p values are held in flight,
which only ``linalg`` may know.
"""

import ast
import importlib
from pathlib import Path

import currentrep

SRC = Path(currentrep.__file__).parent
BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler):
    if handler.type is None:
        return {"<bare>"}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def test_no_asserts_or_broad_handlers_in_library_code():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Assert):
                found.append(f"{where} assert statement")
            elif isinstance(node, ast.ExceptHandler):
                broad = _caught_names(node) & (BROAD | {"<bare>"})
                if broad:
                    found.append(f"{where} except {', '.join(sorted(broad))}")
    assert found == []


def test_imports_only_at_module_level():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_library_code():
    # the package __init__ imports only to re-export
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []


def test_linalg_format_stays_in_linalg():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                private = (isinstance(node.value, ast.Name) and node.value.id == "linalg"
                           and node.attr.startswith("_"))
                if private or node.attr == "lifted":
                    found.append(f"{where} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{where} import {a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def _wrapped_names(path: Path):
    """(module, attribute path) of every currentrep name that a benchmark
    file wraps: in each tuple literal, a "currentrep..." module string and
    the string constants right after it (an attribute, or a class and its
    method)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Tuple):
            continue
        consts = [e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else None
                  for e in node.elts]
        for i, c in enumerate(consts):
            if c is not None and c.startswith("currentrep."):
                attrs = []
                for nxt in consts[i + 1:]:
                    if nxt is None:
                        break
                    attrs.append(nxt)
                out.append((c, tuple(attrs)))
    return out


def test_benchmark_wraps_names_that_exist():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    wrapped = {name: _wrapped_names(bench / name) for name in ("tracer.py", "checks.py")}
    # FUNCTIONS and METHODS in the tracer, the install list of the checks
    assert len(wrapped["tracer.py"]) >= 30 and len(wrapped["checks.py"]) >= 5
    missing = []
    for name, entries in wrapped.items():
        for modname, attrs in entries:
            obj = importlib.import_module(modname)
            for attr in attrs:
                if not hasattr(obj, attr):
                    missing.append(f"{name}: {modname}.{'.'.join(attrs)}")
                    break
                obj = getattr(obj, attr)
            else:
                if not callable(obj):
                    missing.append(f"{name}: {modname}.{'.'.join(attrs)} is not callable")
    tree = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    suites = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "SUITE_NAMES" for t in node.targets))
    SUITES = importlib.import_module("currentrep.suites").SUITES
    missing += [f"suite {e.value}" for e in suites.elts if e.value not in SUITES]
    assert missing == []
