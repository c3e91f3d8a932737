"""Every name a module imports is used in it (no linter is configured)."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/lambdadet", "scripts", "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.partition(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scanner_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport re as regex\n"
        "from fractions import Fraction\n"
        "def f(x):\n    return os.sep, x\n"
    )
    assert unused_imports(source) == ["Fraction", "regex"]


def test_no_unused_imports():
    found = [
        "%s: %s" % (path.relative_to(ROOT), name)
        for folder in SCANNED
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert found == []
