"""Every import in the library and the tests is read: a name a module
imports but never uses fails here, with no linter needed. The library
also reads nothing of numpy that the oldest supported numpy lacks,
defines nothing that only the tests reach, and reads no module's private
names from another."""

import ast
import re
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


def private_library_reads(source: str) -> list[str]:
    """Reads of an underscore-prefixed attribute of a cssfhe module, by
    any name the source binds to one (`from cssfhe import css`, `import
    cssfhe.sim as sim`, `import cssfhe`, and inside the package `from .
    import sim` or `from . import codes as codes_mod`)."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "cssfhe"
                or node.level == 1 and node.module is None):
            modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "cssfhe"}
    return sorted(
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and ast.unparse(node.value).split(".")[0] in modules)


def test_private_library_reads_are_found():
    source = ("from cssfhe import css, sim as s\nimport cssfhe.gf2\n"
              "import numpy as np\n"
              "a = css._block_support(c, 1)\nb = s._parity\n"
              "c = cssfhe.gf2._x\nd = css.encode_blocks\ne = np._private\n"
              "f = code._cache\n")
    assert private_library_reads(source) == [
        "line 4: css._block_support", "line 5: s._parity",
        "line 6: cssfhe.gf2._x"]
    inside = ("from . import sim\nfrom . import codes as codes_mod\n"
              "from .codes import LinearCode\n"
              "a = sim._parity(w)\nb = codes_mod._WEIGHT16\n"
              "c = LinearCode._x\nd = sim.apply_gate\n")
    assert private_library_reads(inside) == [
        "line 4: sim._parity", "line 5: codes_mod._WEIGHT16"]


def test_helpers_read_nothing_private_of_the_library():
    """The test oracles in helpers.py (the reference isometry among them)
    check the library's support code, so they must not read it."""
    source = (ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    assert private_library_reads(source) == []


def test_library_modules_read_nothing_private_of_each_other():
    """An underscore name belongs to its module: another module that
    needs it reads a public name instead."""
    reads = [f"{p.name}: {read.split(': ', 1)[1]}" for p in LIBRARY
             for read in private_library_reads(p.read_text(encoding="utf-8"))]
    assert reads == []


BENCH = sorted(ROOT.glob("bench/*.py"))


def public_definitions(path: Path) -> list[str]:
    """`module.name` of each module-level def or class whose name has no
    leading underscore."""
    return [f"{path.stem}.{node.name}"
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(source: str, strings: bool = False) -> set[str]:
    """The names the source reads, bare or as an attribute, and with
    `strings` every identifier inside a string constant too (the
    benchmark names the functions it wraps by string)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreached(library: list[Path], bench: list[Path]) -> list[str]:
    """Public library definitions that no library code and no benchmark
    file names."""
    read = set().union(
        *(names_read(p.read_text(encoding="utf-8")) for p in library),
        *(names_read(p.read_text(encoding="utf-8"), strings=True)
          for p in bench))
    return sorted(d for p in library for d in public_definitions(p)
                  if d.split(".")[1] not in read)


def test_unreached_definitions_are_found(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def used(): pass\ndef wrapped(): pass\ndef by_bench(): pass\n"
        "def unused(): pass\nclass Unused: pass\ndef _private(): pass\n"
        "def caller():\n    used()\n", encoding="utf-8")
    (tmp_path / "bench.py").write_text(
        "FUNCS = ('wrapped.H',)\nlib.by_bench()\nunused = 1\n",
        encoding="utf-8")
    assert unreached([tmp_path / "lib.py"], [tmp_path / "bench.py"]) == [
        "lib.Unused", "lib.caller", "lib.unused"]


def test_every_library_definition_is_reached():
    """A def or class that only tests call belongs in tests/helpers.py;
    one that nothing calls goes."""
    assert unreached(LIBRARY, BENCH) == []
