"""Each module of the package reaches its siblings through public names only."""

import ast
from pathlib import Path

import pytest

import betasched

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betasched"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_sibling_imports(path):
    """`file:line: name` for each `_`-prefixed name imported from the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "betasched":
            continue  # stdlib and third-party imports
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: {alias.name}"


def test_every_exported_name_resolves():
    # a stale entry would break `from betasched import *`
    assert [name for name in betasched.__all__ if not hasattr(betasched, name)] == []


def test_every_module_is_checked():
    assert {"engine.py", "experiments.py", "policies.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_from_a_sibling(path):
    assert list(private_sibling_imports(path)) == []


def test_a_private_import_is_seen(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "from .engine import _prepare, run\n"
                   "from betasched.analytics import _fmt\n")
    assert list(private_sibling_imports(bad)) == ["bad.py:2: _prepare", "bad.py:3: _fmt"]
