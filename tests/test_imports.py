"""Every name a module of the package imports or defines is used.

No linter ships with the toolchain, so this is the unused-import check,
plus the same check for module-level ``_private`` functions, classes and
constants, which nothing outside their own module should use.
``__init__.py`` is skipped: its imports are the package's public API.
A public top-level function or class must be used by the package, a demo
or perfbench: one only the tests call belongs in the tests.
Importing the package and its CLI must not load scipy: only
``BruteForceOracle`` needs it, and it would be most of the import time.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reach_al"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Where a use of a public name counts: not the tests, nor the re-exports.
USERS = MODULES + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))


def unused_imports(source: str) -> list[str]:
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
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    private = {
        name: line
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__")
    }
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = sorted((line, name) for name, line in private.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def public_definitions(source: str) -> list[str]:
    """Names of the public top-level functions and classes of a module."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def referenced_names(source: str) -> set[str]:
    """Names a module reads, looks up as attributes or imports; a
    definition and a mention in a string do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Sequence\nx: Optional[int]\n") == [
        "line 1: os",
        "line 2: Sequence",
    ]


def test_detects_an_unused_private_name():
    source = "_A = 1\n_B = 2\n\ndef _f():\n    return _A\n\nclass _C:\n    pass\n\n__all__ = [_f]\n"
    assert unused_private_names(source) == ["line 2: _B", "line 7: _C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_detects_an_unreferenced_public_name():
    source = 'def f():\n    """g"""\n\ndef g():\n    return f()\n\nclass C:\n    pass\n'
    assert [n for n in public_definitions(source) if n not in referenced_names(source)] == ["g", "C"]


def test_every_public_name_is_used_outside_tests():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    unused = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in public_definitions(path.read_text())
        if name not in used
    ]
    assert unused == []


def test_package_import_loads_no_scipy():
    code = (
        "import sys, reach_al, reach_al.cli\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
