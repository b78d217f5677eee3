"""Every module in src/signrank uses each name it imports, and every
function reads each local it assigns.

Plain ``ast`` walks: an imported name counts as used when it appears as a
name anywhere in the module or is listed in ``__all__`` (re-exports); a
local counts as read when it is loaded anywhere in its function, nested
functions included.
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []
