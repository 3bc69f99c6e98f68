"""Every name a module of the package imports is used in that module, and
every private module-level name the package defines is read in it.

Stand-ins for a linter's unused-import and unused-name rules, built on `ast`
alone. `__init__.py` is left out of the import check: it imports names to
re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qinflate"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in `source` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom typing import Sequence\nos.sep\n"
    assert unused_imports(source) == ["Sequence", "np"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore in any of `sources` that none of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def test_checker_finds_unread_private_names():
    sources = [
        "_TOL = 1e-8\n_LIMIT: int = 3\n__all__ = []\nclass _Box: pass\n"
        "def _helper(): return _TOL\ndef _dead(): pass\n",
        "from m import _helper\nimport m\n_helper(); m._Box\n",
    ]
    assert unread_private_names(sources) == ["_LIMIT", "_dead"]


def test_no_unread_private_names():
    assert unread_private_names([p.read_text() for p in PACKAGE]) == []
