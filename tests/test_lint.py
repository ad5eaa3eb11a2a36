"""Source rules that a normal test run would not notice being broken.

``python -O`` strips ``assert`` statements, so library invariants raise
``InternalError``; a handler for ``Exception`` (or a bare ``except``)
would turn a bug into an ordinary-looking outcome; and an import inside a
function hides a module's dependencies from its header.
"""

import ast
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
