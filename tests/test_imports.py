"""Every module in src/signrank uses each name it imports, every
function reads each local it assigns, and every module-level private name
is used somewhere in the package.

Plain ``ast`` walks: an imported name counts as used when it appears as a
name anywhere in the module or is listed in ``__all__`` (re-exports); a
local counts as read when it is loaded anywhere in its function, nested
functions included; a private name counts as used when some module loads
it as a name or an attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "signrank"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_locals(source: str):
    """(line, name) for each name a function binds by a plain assignment
    (``name = ...``) and never reads.  Tuple-unpacking targets are exempt,
    and so are names the function declares ``global`` or ``nonlocal``."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                found.update(
                    (t.lineno, t.id) for t in node.targets
                    if isinstance(t, ast.Name) and t.id not in read
                )
    return sorted(found)


def unreferenced_privates(sources):
    """(module, line, name) for each module-level private name (``_x``, not
    a dunder) that no module in ``sources`` (module -> source text) loads
    as a name or an attribute.  Defining it does not count as a use."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [
                (module, node.lineno, name) for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Optional, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: Optional[int]):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "system")]


def test_checker_finds_unused_locals():
    source = (
        "def f(x):\n"
        "    a, b = x\n"
        "    kept = x + 1\n"
        "    dropped = x - 1\n"
        "    def g():\n"
        "        nonlocal kept\n"
        "        kept = 2\n"
        "        inner = kept\n"
        "        return a\n"
        "    return g\n"
    )
    assert unused_locals(source) == [(4, "dropped"), (8, "inner")]


def test_checker_finds_unreferenced_privates():
    sources = {
        "a": (
            "import b\n"
            "_alias = print\n"
            "_kept: int = 1\n"
            "def _dead():\n"
            "    _local = 2\n"
            "    return _local\n"
            "def __dunder__():\n"
            "    return _kept + b._helper()\n"
        ),
        "b": "def _helper():\n    return 0\nclass _Unused:\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", 2, "_alias"), ("a", 4, "_dead"), ("b", 3, "_Unused")]


def test_no_unreferenced_privates():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []
