"""Every name a package, test or benchmark module imports is used in that module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stridelink"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source):
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_the_check_finds_unused_names():
    source = "import os\nimport os.path\nfrom a import b as c, d\nfrom __future__ import annotations\nc(d)\n"
    assert unused_imports(source) == [(1, "os"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
