"""Every import in the library and the tests is read: a name a module
imports but never uses fails here, with no linter needed. The library
also reads nothing of numpy that the oldest supported numpy lacks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/cssfhe/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport numpy as np\nfrom a.b import c, d\n"
              "print(sys.argv, d)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: np",
                                      "line 4: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# numpy attributes newer than the floor in pyproject.toml (numpy>=1.24)
NEWER_THAN_FLOOR = {"bitwise_count": "2.0"}
LIBRARY = sorted(ROOT.glob("src/cssfhe/*.py"))


def numpy_reads_above_floor(source: str) -> list[str]:
    """`np.<name>` or `numpy.<name>` reads of a name in NEWER_THAN_FLOOR."""
    return sorted(
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in NEWER_THAN_FLOOR
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy"))


def test_numpy_reads_above_floor_are_found():
    source = ("import numpy as np\n"
              "w = np.bitwise_count(a)\nv = np.bitwise_and(a, 1)\n")
    assert numpy_reads_above_floor(source) == ["line 2: np.bitwise_count"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_runs_on_the_numpy_floor(path):
    assert numpy_reads_above_floor(path.read_text(encoding="utf-8")) == []
