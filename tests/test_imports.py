"""Every name a module imports is used in it (no linter is configured),
only laurent.py reads LaurentPoly's private attributes, so the layout of a
value can change in that one module, no package module imports
another's private (underscore) names, every error type is raised
somewhere in the package, and the package computes no float."""

from __future__ import annotations

import ast
from pathlib import Path

from lambdadet.laurent import LaurentPoly

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/lambdadet"
SCANNED = (PACKAGE, "scripts", "tests")
LAURENT = ROOT / "src/lambdadet/laurent.py"
ERRORS = ROOT / "src/lambdadet/errors.py"
PRIVATE = frozenset(LaurentPoly.__slots__) | {"_wrap", "_reduced"}


def scanned_files() -> list[Path]:
    return [path for folder in SCANNED for path in sorted((ROOT / folder).glob("*.py"))]


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


def private_reads(source: str) -> list[str]:
    """Private LaurentPoly attributes that the module reads."""
    return sorted(
        {
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
        }
    )


def private_imports(source: str) -> list[str]:
    """Underscore names that the module imports from a lambdadet module."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "lambdadet")
        for alias in node.names
        if alias.name.startswith("_")
    )


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
        for path in scanned_files()
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert found == []


def test_scanner_flags_private_laurent_reads():
    source = "def f(poly):\n    return poly._slices, poly.terms(), poly.__slots__\n"
    assert private_reads(source) == ["_slices"]


def test_only_laurent_reads_the_representation():
    found = [
        "%s: %s" % (path.relative_to(ROOT), name)
        for path in scanned_files()
        if path != LAURENT
        for name in private_reads(path.read_text())
    ]
    assert found == []


def test_scanner_flags_private_package_imports():
    source = (
        "from __future__ import annotations\n"
        "from ._util import helper\n"
        "from .condensation import _divide_by, lambda_det\n"
        "from lambdadet.asm import _fold\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == ["_divide_by", "_fold"]


def test_no_module_imports_private_package_names():
    found = [
        "%s: %s" % (path.relative_to(ROOT), name)
        for path in sorted((ROOT / PACKAGE).glob("*.py"))
        for name in private_imports(path.read_text())
    ]
    assert found == []


def raised_names(source: str) -> set[str]:
    """Names that a raise statement raises, called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_scanner_collects_raised_names():
    source = (
        "def f(x):\n    if x:\n        raise KeyError(x)\n"
        "    try:\n        pass\n    except ValueError:\n        raise\n"
        "    raise StopIteration\n"
    )
    assert raised_names(source) == {"KeyError", "StopIteration"}


def test_every_error_type_is_raised():
    declared = {
        node.name
        for node in ast.parse(ERRORS.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name != "LambdaDetError"
    }
    raised = set().union(
        *(raised_names(path.read_text()) for path in (ROOT / PACKAGE).glob("*.py"))
    )
    assert sorted(declared - raised) == []


INEXACT_MATH = frozenset({"cos", "sin", "pi", "inf", "isfinite"})


def inexact_uses(source: str) -> list[str]:
    """Float constants, float(...) calls and trigonometric or infinite
    math names in the source, each after its line number, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append((node.lineno, "float()"))
        elif isinstance(node, ast.Attribute) and node.attr in INEXACT_MATH:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append((node.lineno, "math." + node.attr))
    return ["%d: %s" % use for use in sorted(found)]


def test_scanner_flags_inexact_arithmetic():
    source = (
        "import math, time\n"
        "def f(n: int) -> float:\n"
        "    start = time.perf_counter()\n"
        "    x = 1.0 * math.cos(math.pi / n) + float(n) + 2j\n"
        "    return math.comb(n, 2), math.isfinite(x), time.perf_counter() - start\n"
    )
    assert inexact_uses(source) == [
        "4: 1.0", "4: 2j", "4: float()", "4: math.cos", "4: math.pi", "5: math.isfinite"
    ]


def test_package_computes_no_float():
    found = [
        "%s:%s" % (path.relative_to(ROOT), use)
        for path in sorted((ROOT / PACKAGE).glob("*.py"))
        for use in inexact_uses(path.read_text())
    ]
    assert found == []
