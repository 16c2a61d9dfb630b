"""Static checks on the package source."""

import ast
import pathlib

import pytest

import modlab

SOURCES = sorted(pathlib.Path(modlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression in the module reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from .a import b, c as d\n"
              "print(os, d)\n")
    assert unused_imports(source) == ["line 4: b", "line 3: j"]


# the package __init__ imports names only to re-export them
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
