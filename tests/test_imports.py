"""Every name a module of the package imports or defines privately is used.

No linter ships with the toolchain, so this is the unused-import check,
plus the same check for module-level ``_private`` functions, classes and
constants, which nothing outside their own module should use.
``__init__.py`` is skipped: its imports are the package's public API.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "reach_al"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
