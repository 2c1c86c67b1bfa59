"""Every imported name is used.

Each module under ``src/jacv``, ``tests`` and ``scripts`` is parsed with
``ast``; a name bound by an import statement must be read somewhere in the
same module as a plain name (which covers ``name.attribute`` too).  Imports
from ``__future__`` bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/jacv", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(source):
    """``(line, name)`` of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "from x import y as z, w\n"
        "w(a)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
