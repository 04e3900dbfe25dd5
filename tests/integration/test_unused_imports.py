"""No module under ``src/`` or ``tests/`` binds a name it never uses.

The stdlib-``ast`` twin of ruff's ``F401`` and ``F841`` (which CI
runs): a deleted caller can leave its import or its local behind, and
nothing else notices.

* A module-level import counts as used when its bound name is read
  anywhere in the module (string annotations included), is listed in
  the module's ``__all__``, or its line carries a ``noqa`` comment.
* Inside a function, an import, a plain-name assignment (``x = ...``,
  ``x: T = ...``) or an ``except ... as x`` name counts as used when
  the name is read anywhere in the function, nested functions
  included.  Names starting with ``_``, tuple unpacking and functions
  that call ``locals()`` are exempt, as under ruff's defaults.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
TESTS = Path(__file__).resolve().parents[1]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _import_bindings(node):
    """``(name, line)`` for every name an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, node.lineno


def _names(tree):
    """Every name ``tree`` reads (loads, ``del``s, augmented targets,
    ``nonlocal``/``global`` declarations, string annotations)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            used.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            used.update(node.names)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names(ast.parse(part.value, mode="eval"))
    return used


def _annotations(node):
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return filter(None, [node.annotation])
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return filter(None, [node.returns])
    return ()


def _module_used_names(tree):
    used = _names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def _own_nodes(function):
    """The nodes of ``function``'s own scope (nested scopes excluded)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, _SCOPES)
        )


def _local_bindings(function):
    """``(name, line)`` for the imports, plain-name assignments and
    ``except ... as`` names of ``function``'s own scope."""
    for node in _own_nodes(function):
        yield from _import_bindings(node)
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno
        if isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, node.lineno


def unused_bindings(path):
    """``(line, name)`` for every unused module-level import and every
    unused function-scope binding of ``path``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    module_used = _module_used_names(tree)
    found = [
        (line, name)
        for node in tree.body
        for name, line in _import_bindings(node)
        if name not in module_used
    ]
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = _names(function)
        if "locals" in used:
            continue
        found.extend(
            (line, name)
            for name, line in _local_bindings(function)
            if name not in used and not name.startswith("_")
        )
    return sorted(
        (line, name) for line, name in set(found)
        if "noqa" not in lines[line - 1]
    )


def _unused_under(root):
    return [
        f"{path.relative_to(root.parent)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in unused_bindings(path)
    ]


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom typing import Any, List\n"
        "__all__ = ['exported']\nfrom x import exported\n"
        "def f(a: 'List[int]'): return a\n"
    )
    assert unused_bindings(module) == [(1, "os"), (2, "Any")]


def test_checker_flags_unused_function_scope_names(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(items):\n"
        "    import json\n"             # 2: unused local import
        "    import numpy as np\n"
        "    total = np.sum(items)\n"
        "    left = 1\n"                # 5: unused local
        "    first, rest = 1, 2\n"      # tuple unpacking: exempt
        "    _ignored = 3\n"            # underscore: exempt
        "    count = 0\n"
        "    count += 1\n"              # augmented: a read
        "    seen = 0\n"
        "    def inner():\n"
        "        nonlocal seen\n"       # closure: a read
        "        seen = 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"  # 16: unused except name
        "        pass\n"
        "    except KeyError as err:\n"
        "        raise RuntimeError(err)\n"
        "    return total\n"
    )
    assert unused_bindings(module) == [(2, "json"), (5, "left"), (16, "exc")]


def test_no_unused_module_level_imports_under_src():
    """Function-scope names under ``src/`` are checked here too."""
    assert _unused_under(SRC) == []


def test_no_unused_imports_or_locals_under_tests():
    assert _unused_under(TESTS) == []
