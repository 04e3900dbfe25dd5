"""No module under ``src/`` imports a name it never uses.

The stdlib-``ast`` twin of ruff's ``F401`` (which CI runs): a deleted
caller can leave its import behind, and nothing else notices.  A
module-level import counts as used when its bound name is read
anywhere in the module (string annotations included), is listed in the
module's ``__all__``, or its line carries a ``noqa`` comment.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _bound_imports(tree):
    """``(name, line)`` for every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used_names(tree):
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names(ast.parse(part.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    """``(line, name)`` for every unused module-level import of ``path``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        (line, name)
        for name, line in _bound_imports(tree)
        if name not in used and "noqa" not in lines[line - 1]
    ]


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom typing import Any, List\n"
        "__all__ = ['exported']\nfrom x import exported\n"
        "def f(a: 'List[int]'): return a\n"
    )
    assert unused_imports(module) == [(1, "os"), (2, "Any")]


def test_no_unused_module_level_imports_under_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert found == []
