"""Every name a crvanet module imports is used in that module, unless its
import line says noqa; __init__.py, which re-exports, is exempt. Every
private top-level name a module defines is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crvanet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, skipping __future__
    imports and import lines that say noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    """The private (one leading underscore) names `source` defines at top
    level, as a function, class or assignment target, and never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_unread_private_names_are_found():
    source = ("import math\n__all__ = ['f']\n_KEY_OF = {}\n_A, (_B, c) = 1, (2, 3)\n"
              "_T: int = 0\n_T = 1\n\n\ndef _helper():\n    _local = _B\n    return _local\n\n\n"
              "class _Unused:\n    _attr = 1\n\n\ndef f():\n    return _A\n")
    assert unread_private_names(source) == ["line 3: _KEY_OF", "line 5: _T", "line 9: _helper",
                                            "line 14: _Unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from dataclasses import (\n    dataclass,\n    field,  # noqa: F401\n)\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: math", "line 3: os", "line 6: dataclass"]
